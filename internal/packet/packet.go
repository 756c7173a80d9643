// Package packet defines the portable check-packet wire format.
//
// A CheckPacket is everything a checker needs to re-verify one sealed
// segment away from the recording runtime: the configuration (digested, so
// a daemon refuses packets from a differently-configured run), the
// segment's start state (registers, VMAs, per-page content keys into a
// pagestore, signal handlers, brk), the record/replay event log, and the
// expected end state (registers plus per-page content hashes). Checkers are
// pure functions of exactly these inputs (§4.2–4.4), which is what makes
// the packet a complete, schedulable unit of verification.
//
// The encoding is versioned, little-endian, and deterministic: encoding the
// same packet twice yields identical bytes, and Decode(Encode(p)) followed
// by Encode reproduces the input byte for byte. Decode never panics on
// arbitrary input; malformed packets yield typed errors (ErrMagic,
// ErrVersion, ErrTruncated, ErrCorrupt).
package packet

import (
	"errors"
	"fmt"
	"math"

	"parallaft/internal/hashx"
	"parallaft/internal/isa"
	"parallaft/internal/pagestore"
	"parallaft/internal/proc"
)

// Version is the current wire-format version. Bump it on any layout change;
// the golden wire-format test makes such a change an explicit review item.
//
// Version history:
//
//	1 — initial format (PR 3)
//	2 — adds the TraceID causal-tracing header field after ConfigDigest
const Version = 2

// MinVersion is the oldest wire-format version Decode accepts. A v1 packet
// is refused with ErrVersion: nothing still produces one.
const MinVersion = 2

// magic identifies a check packet.
var magic = [6]byte{'P', 'A', 'F', 'T', 'P', 'K'}

// Typed decode errors.
var (
	ErrMagic     = errors.New("packet: bad magic")
	ErrVersion   = errors.New("packet: unsupported format version")
	ErrTruncated = errors.New("packet: truncated input")
	ErrCorrupt   = errors.New("packet: corrupt field")
)

// Decode size limits: a corrupt count or length must not translate into an
// unbounded allocation.
const (
	maxStringLen = 1 << 12
	maxDataLen   = 1 << 24
	maxCount     = 1 << 22
)

// Config is the subset of core.Config a verdict depends on. Everything else
// in the runtime configuration (scheduling, DVFS, cost knobs) affects
// timing and energy, never the verdict, so it stays out of the digest.
type Config struct {
	PageSize          uint64
	Quantum           uint64
	SkidBuffer        uint64
	TimeoutScale      float64
	CompareStates     bool
	SoftDirtyTracking bool
	CompareFullMemory bool
	HashSeed          uint64 // page-hash seed; must match on both sides
}

// digestSeed seeds the config digest hash.
const digestSeed = 0x70616674636667 // "paftcfg"

// Digest returns a stable 64-bit digest of the verdict-relevant config.
func (c Config) Digest() uint64 {
	var e enc
	e.u64(c.PageSize)
	e.u64(c.Quantum)
	e.u64(c.SkidBuffer)
	e.f64(c.TimeoutScale)
	e.bool(c.CompareStates)
	e.bool(c.SoftDirtyTracking)
	e.bool(c.CompareFullMemory)
	e.u64(c.HashSeed)
	return hashx.Sum64(digestSeed, e.buf)
}

// ExecPoint mirrors core.ExecPoint: a precise point in a segment's
// execution (segment-relative retired branches + PC).
type ExecPoint struct {
	Branches uint64
	PC       uint64
}

// RegFile is the architectural register file in wire form. Floats are
// carried as bit patterns so NaNs survive the trip bit-exactly.
type RegFile struct {
	X [isa.NumGPR]uint64
	F [isa.NumFPR]uint64 // math.Float64bits of proc.Regs.F
	V [isa.NumVR][isa.VLanes]uint64
}

// RegsToWire converts a live register file to wire form.
func RegsToWire(r *proc.Regs) RegFile {
	var w RegFile
	w.X = r.X
	for i, f := range r.F {
		w.F[i] = math.Float64bits(f)
	}
	w.V = r.V
	return w
}

// Regs converts the wire form back to a live register file.
func (w *RegFile) Regs() proc.Regs {
	var r proc.Regs
	r.X = w.X
	for i, bits := range w.F {
		r.F[i] = math.Float64frombits(bits)
	}
	r.V = w.V
	return r
}

// VMA is one mapped region of the start state.
type VMA struct {
	Base   uint64
	Length uint64
	Prot   uint8
	Name   string
}

// PageRef is one mapped page of the start state: its content lives in the
// accompanying pagestore under Key.
type PageRef struct {
	VPN  uint64
	Key  pagestore.Key
	Prot uint8
}

// Handler is one installed signal handler.
type Handler struct {
	Sig uint8
	PC  uint64
}

// StartState is the segment-start checkpoint in portable form.
type StartState struct {
	Regs     RegFile
	PC       uint64
	BrkBase  uint64
	Brk      uint64
	VMAs     []VMA     // sorted by Base
	Pages    []PageRef // sorted by VPN
	Handlers []Handler // sorted by Sig
}

// Region is captured guest memory attached to a syscall event.
type Region struct {
	Addr uint64
	Data []byte
}

// SyscallEvent mirrors core.SyscallRecord.
type SyscallEvent struct {
	Nr            uint16
	Args          [5]uint64
	Class         uint8
	In            []Region
	Ret           int64
	Out           []Region
	MmapFixedAddr uint64
}

// NondetEvent mirrors core.NondetRecord.
type NondetEvent struct {
	PC    uint64
	Value uint64
}

// SignalEvent mirrors core.SignalRecord.
type SignalEvent struct {
	Sig   uint8
	PC    uint64
	Point ExecPoint
	Fatal bool
}

// Event kinds; values match core.EventKind.
const (
	EvSyscall        = 0
	EvNondet         = 1
	EvSignalInternal = 2
	EvSignalExternal = 3
)

// Event is one record/replay log entry in wire form. Exactly one payload
// pointer is non-nil, selected by Kind.
type Event struct {
	Kind    uint8
	Syscall *SyscallEvent
	Nondet  *NondetEvent
	Signal  *SignalEvent
}

// PageHash is one expected end-state page: the XXH64 content hash under the
// config's HashSeed.
type PageHash struct {
	VPN uint64
	Sum uint64
}

// EndState is the expected segment-end state: registers compared bit-exact,
// memory compared by per-page content hash.
type EndState struct {
	Regs  RegFile
	PC    uint64
	Pages []PageHash // sorted by VPN; every page mapped at segment end
}

// CheckPacket is one sealed segment as a portable unit of verification.
type CheckPacket struct {
	Version      uint16
	ConfigDigest uint64

	// TraceID is the segment's causal-trace ID (telemetry.NewTraceID),
	// propagated so remote checkers tag their verify spans with the same
	// chain the recording side started. Zero means the segment is untraced.
	TraceID uint64

	Config Config

	Benchmark string
	ProgName  string
	Segment   int

	// Recorded end point and checker budget. InstrLimit is absolute (the
	// checker's Instrs count at which the timeout fires), carrying the
	// recording side's seal-time budget so timeout verdicts transfer.
	// MainInstrs is the main's instruction count over the segment, carried
	// so timeout reports quote the same budget arithmetic as in-process.
	End        ExecPoint
	EndIsExit  bool
	InstrLimit uint64
	MainInstrs uint64

	// Identity and PMU parameters the replay depends on: the recorded
	// checker's PID (the kill(2) self-check compares against it), the PMU
	// noise seed derived from that PID, and the counter-skid bound.
	CheckerPID int
	PMUSeed    int64
	MaxSkid    int

	// Program text, stored once in the pagestore (deduped across every
	// segment of a run).
	CodeKey pagestore.Key
	CodeLen int // instructions

	Start    StartState
	Events   []Event
	EndState EndState
}

// ChunkKeys appends the distinct pagestore keys this packet references —
// the program text plus every start-state page — to dst and returns the
// extended slice. The order is deterministic (code first, then pages by
// ascending VPN) and duplicates are collapsed, so a transport routing
// chunks to a checker node can treat the result as exactly the set that
// must be resident there before the packet is checked.
func (p *CheckPacket) ChunkKeys(dst []pagestore.Key) []pagestore.Key {
	seen := make(map[pagestore.Key]struct{}, 1+len(p.Start.Pages))
	add := func(k pagestore.Key) {
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		dst = append(dst, k)
	}
	add(p.CodeKey)
	for _, pg := range p.Start.Pages {
		add(pg.Key)
	}
	return dst
}

// --- code serialization -----------------------------------------------------

// codeInstrBytes is the fixed encoding size of one instruction.
const codeInstrBytes = 12

// EncodeCode serializes program text: 12 bytes per instruction.
func EncodeCode(code []isa.Instr) []byte {
	var e enc
	e.buf = make([]byte, 0, len(code)*codeInstrBytes)
	for _, ins := range code {
		e.u8(uint8(ins.Op))
		e.u8(ins.Rd)
		e.u8(ins.Ra)
		e.u8(ins.Rb)
		e.i64(ins.Imm)
	}
	return e.buf
}

// DecodeCode deserializes program text encoded by EncodeCode.
func DecodeCode(b []byte, n int) ([]isa.Instr, error) {
	if n < 0 || n > maxCount || len(b) != n*codeInstrBytes {
		return nil, fmt.Errorf("%w: code length %d does not match %d instructions", ErrCorrupt, len(b), n)
	}
	d := dec{b: b}
	code := make([]isa.Instr, n)
	for i := range code {
		code[i].Op = isa.Op(d.u8())
		code[i].Rd = d.u8()
		code[i].Ra = d.u8()
		code[i].Rb = d.u8()
		code[i].Imm = d.i64()
	}
	return code, d.err
}

// --- encoding ---------------------------------------------------------------

// Encode serializes the packet. The output is deterministic: one packet has
// exactly one encoding. Encode writes p.Version verbatim (not the package
// constant), so version-mismatch handling is testable end to end.
func Encode(p *CheckPacket) []byte {
	var e enc
	e.buf = make([]byte, 0, 1024)
	e.raw(magic[:])
	e.u16(p.Version)
	e.u64(p.ConfigDigest)
	e.u64(p.TraceID)

	e.u64(p.Config.PageSize)
	e.u64(p.Config.Quantum)
	e.u64(p.Config.SkidBuffer)
	e.f64(p.Config.TimeoutScale)
	e.bool(p.Config.CompareStates)
	e.bool(p.Config.SoftDirtyTracking)
	e.bool(p.Config.CompareFullMemory)
	e.u64(p.Config.HashSeed)

	e.str(p.Benchmark)
	e.str(p.ProgName)
	e.i64(int64(p.Segment))

	e.u64(p.End.Branches)
	e.u64(p.End.PC)
	e.bool(p.EndIsExit)
	e.u64(p.InstrLimit)
	e.u64(p.MainInstrs)
	e.i64(int64(p.CheckerPID))
	e.i64(p.PMUSeed)
	e.i64(int64(p.MaxSkid))

	e.u64(uint64(p.CodeKey))
	e.i64(int64(p.CodeLen))

	e.regs(&p.Start.Regs)
	e.u64(p.Start.PC)
	e.u64(p.Start.BrkBase)
	e.u64(p.Start.Brk)
	e.u32(uint32(len(p.Start.VMAs)))
	for _, v := range p.Start.VMAs {
		e.u64(v.Base)
		e.u64(v.Length)
		e.u8(v.Prot)
		e.str(v.Name)
	}
	e.u32(uint32(len(p.Start.Pages)))
	for _, pg := range p.Start.Pages {
		e.u64(pg.VPN)
		e.u64(uint64(pg.Key))
		e.u8(pg.Prot)
	}
	e.u32(uint32(len(p.Start.Handlers)))
	for _, h := range p.Start.Handlers {
		e.u8(h.Sig)
		e.u64(h.PC)
	}

	e.u32(uint32(len(p.Events)))
	for i := range p.Events {
		ev := &p.Events[i]
		e.u8(ev.Kind)
		switch ev.Kind {
		case EvSyscall:
			s := ev.Syscall
			e.u16(s.Nr)
			for _, a := range s.Args {
				e.u64(a)
			}
			e.u8(s.Class)
			e.regions(s.In)
			e.i64(s.Ret)
			e.regions(s.Out)
			e.u64(s.MmapFixedAddr)
		case EvNondet:
			e.u64(ev.Nondet.PC)
			e.u64(ev.Nondet.Value)
		case EvSignalInternal, EvSignalExternal:
			s := ev.Signal
			e.u8(s.Sig)
			e.u64(s.PC)
			e.u64(s.Point.Branches)
			e.u64(s.Point.PC)
			e.bool(s.Fatal)
		}
	}

	e.regs(&p.EndState.Regs)
	e.u64(p.EndState.PC)
	e.u32(uint32(len(p.EndState.Pages)))
	for _, pg := range p.EndState.Pages {
		e.u64(pg.VPN)
		e.u64(pg.Sum)
	}
	return e.buf
}

// Decode deserializes a packet. It never panics: malformed input yields a
// typed error. Trailing bytes, out-of-range counts, non-canonical booleans
// and unknown event kinds are all rejected, so every valid byte string has
// exactly one packet (and vice versa).
func Decode(b []byte) (*CheckPacket, error) {
	d := dec{b: b}
	var m [6]byte
	copy(m[:], d.raw(6))
	if d.err != nil {
		return nil, d.err
	}
	if m != magic {
		return nil, ErrMagic
	}
	p := &CheckPacket{}
	p.Version = d.u16()
	if d.err != nil {
		return nil, d.err
	}
	if p.Version < MinVersion || p.Version > Version {
		return nil, fmt.Errorf("%w: got %d, support %d..%d", ErrVersion, p.Version, MinVersion, Version)
	}
	p.ConfigDigest = d.u64()
	p.TraceID = d.u64()

	p.Config.PageSize = d.u64()
	p.Config.Quantum = d.u64()
	p.Config.SkidBuffer = d.u64()
	p.Config.TimeoutScale = d.f64()
	p.Config.CompareStates = d.bool()
	p.Config.SoftDirtyTracking = d.bool()
	p.Config.CompareFullMemory = d.bool()
	p.Config.HashSeed = d.u64()

	p.Benchmark = d.str()
	p.ProgName = d.str()
	p.Segment = int(d.i64())

	p.End.Branches = d.u64()
	p.End.PC = d.u64()
	p.EndIsExit = d.bool()
	p.InstrLimit = d.u64()
	p.MainInstrs = d.u64()
	p.CheckerPID = int(d.i64())
	p.PMUSeed = d.i64()
	p.MaxSkid = int(d.i64())

	p.CodeKey = pagestore.Key(d.u64())
	p.CodeLen = int(d.i64())

	d.regs(&p.Start.Regs)
	p.Start.PC = d.u64()
	p.Start.BrkBase = d.u64()
	p.Start.Brk = d.u64()
	if n := d.count(17); n > 0 {
		p.Start.VMAs = make([]VMA, n)
		for i := range p.Start.VMAs {
			p.Start.VMAs[i].Base = d.u64()
			p.Start.VMAs[i].Length = d.u64()
			p.Start.VMAs[i].Prot = d.u8()
			p.Start.VMAs[i].Name = d.str()
		}
	}
	if n := d.count(17); n > 0 {
		p.Start.Pages = make([]PageRef, n)
		for i := range p.Start.Pages {
			p.Start.Pages[i].VPN = d.u64()
			p.Start.Pages[i].Key = pagestore.Key(d.u64())
			p.Start.Pages[i].Prot = d.u8()
		}
	}
	if n := d.count(9); n > 0 {
		p.Start.Handlers = make([]Handler, n)
		for i := range p.Start.Handlers {
			p.Start.Handlers[i].Sig = d.u8()
			p.Start.Handlers[i].PC = d.u64()
		}
	}

	if n := d.count(1); n > 0 {
		p.Events = make([]Event, n)
		for i := range p.Events {
			ev := &p.Events[i]
			ev.Kind = d.u8()
			if d.err != nil {
				return nil, d.err
			}
			switch ev.Kind {
			case EvSyscall:
				s := &SyscallEvent{}
				s.Nr = d.u16()
				for j := range s.Args {
					s.Args[j] = d.u64()
				}
				s.Class = d.u8()
				s.In = d.regions()
				s.Ret = d.i64()
				s.Out = d.regions()
				s.MmapFixedAddr = d.u64()
				ev.Syscall = s
			case EvNondet:
				ev.Nondet = &NondetEvent{PC: d.u64(), Value: d.u64()}
			case EvSignalInternal, EvSignalExternal:
				s := &SignalEvent{}
				s.Sig = d.u8()
				s.PC = d.u64()
				s.Point.Branches = d.u64()
				s.Point.PC = d.u64()
				s.Fatal = d.bool()
				ev.Signal = s
			default:
				return nil, fmt.Errorf("%w: unknown event kind %d", ErrCorrupt, ev.Kind)
			}
		}
	}

	d.regs(&p.EndState.Regs)
	p.EndState.PC = d.u64()
	if n := d.count(16); n > 0 {
		p.EndState.Pages = make([]PageHash, n)
		for i := range p.EndState.Pages {
			p.EndState.Pages[i].VPN = d.u64()
			p.EndState.Pages[i].Sum = d.u64()
		}
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return p, nil
}

// --- primitive writer -------------------------------------------------------

type enc struct {
	buf []byte
}

func (e *enc) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16) { e.buf = append(e.buf, byte(v), byte(v>>8)) }
func (e *enc) u32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) regs(r *RegFile) {
	for _, x := range r.X {
		e.u64(x)
	}
	for _, f := range r.F {
		e.u64(f)
	}
	for _, v := range r.V {
		for _, lane := range v {
			e.u64(lane)
		}
	}
}
func (e *enc) regions(rs []Region) {
	e.u32(uint32(len(rs)))
	for _, r := range rs {
		e.u64(r.Addr)
		e.u32(uint32(len(r.Data)))
		e.raw(r.Data)
	}
}

// --- primitive reader -------------------------------------------------------

// dec is a bounds-checked cursor; after the first error every read returns
// zero and the error sticks.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail(ErrTruncated)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() uint8 {
	b := d.raw(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.raw(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (d *dec) u32() uint32 {
	b := d.raw(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64() uint64 {
	b := d.raw(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: non-canonical boolean", ErrCorrupt))
		return false
	}
}

func (d *dec) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.fail(fmt.Errorf("%w: string length %d", ErrCorrupt, n))
		return ""
	}
	return string(d.raw(int(n)))
}

// count reads a collection count, rejecting values that could not possibly
// fit in the remaining input given a minimum element size.
func (d *dec) count(minElem int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if n > maxCount || int(n)*minElem > len(d.b)-d.off {
		d.fail(fmt.Errorf("%w: count %d exceeds input", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

func (d *dec) regs(r *RegFile) {
	for i := range r.X {
		r.X[i] = d.u64()
	}
	for i := range r.F {
		r.F[i] = d.u64()
	}
	for i := range r.V {
		for j := range r.V[i] {
			r.V[i][j] = d.u64()
		}
	}
}

func (d *dec) regions() []Region {
	n := d.count(12)
	if n == 0 {
		return nil
	}
	out := make([]Region, n)
	for i := range out {
		out[i].Addr = d.u64()
		ln := d.u32()
		if d.err != nil {
			return out
		}
		if ln > maxDataLen {
			d.fail(fmt.Errorf("%w: region length %d", ErrCorrupt, ln))
			return out
		}
		if b := d.raw(int(ln)); b != nil && ln > 0 {
			out[i].Data = append([]byte(nil), b...)
		}
	}
	return out
}
