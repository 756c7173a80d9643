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
// Event is the record itself, not a copy of it: the recording runtime
// appends Events to a segment's log, a sealed log becomes a packet's Events
// as it is, and the replay engine consumes a decoded packet's Events as
// they are.
//
// The encoding is versioned, little-endian, and deterministic: encoding the
// same packet twice yields identical bytes, and Decode(Encode(p)) followed
// by Encode reproduces the input byte for byte. The layout is written once,
// as a walk over the packet (coder.packet) that encoding and decoding both
// run; the config digest hashes that walk's config block. Encoding only
// reads the packet, so many goroutines may encode one packet at once.
// Decode never panics on arbitrary input; malformed packets yield typed
// errors (ErrMagic, ErrVersion, ErrTruncated, ErrCorrupt).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"parallaft/internal/hashx"
	"parallaft/internal/isa"
	"parallaft/internal/oskernel"
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

// Digest returns a stable 64-bit digest of the verdict-relevant config: the
// hash of its block of the wire layout.
func (cfg Config) Digest() uint64 {
	var c coder
	c.config(&cfg)
	return hashx.Sum64(digestSeed, c.buf)
}

// ExecPoint identifies a precise point in a segment's execution: the number
// of branches retired since the segment started, plus the program counter.
// A PC alone is not sufficient because it may be inside a loop; the branch
// count selects the iteration (§4.2, footnote 5).
type ExecPoint struct {
	Branches uint64 // segment-relative retired-branch count
	PC       uint64
}

// String renders the execution point.
func (e ExecPoint) String() string {
	return fmt.Sprintf("pc=%d after %d branches", e.PC, e.Branches)
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

// StartState is the segment-start checkpoint in portable form. Registers
// travel bit-exact: floats as their bit patterns, so NaN payloads survive.
type StartState struct {
	Regs     proc.Regs
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

// EventKind tags record/replay log entries.
type EventKind uint8

// Event kinds.
const (
	// EvSyscall covers all three syscall classes; the record's Class field
	// selects replay behaviour.
	EvSyscall EventKind = iota
	// EvNondet is a trapped nondeterministic instruction (rdtsc/mrs).
	EvNondet
	// EvSignalInternal is a fault raised by the application itself
	// (SIGSEGV, SIGFPE); it occurs at a deterministic point so replay is
	// self-synchronising (§4.3.3).
	EvSignalInternal
	// EvSignalExternal is an asynchronous signal from outside; its
	// delivery point is an ExecPoint the checker must be steered to
	// (§4.3.3).
	EvSignalExternal
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvSyscall:
		return "syscall"
	case EvNondet:
		return "nondet"
	case EvSignalInternal:
		return "signal-internal"
	case EvSignalExternal:
		return "signal-external"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// SyscallEvent captures one syscall made by the main process.
type SyscallEvent struct {
	Info  oskernel.Info
	Class oskernel.Class
	// In holds the contents of the input regions (per the syscall model)
	// at the time the main issued the call; the checker's inputs must
	// match byte-for-byte.
	In []Region
	// Ret is the main's return value, replayed to the checker for global
	// and non-effectful calls.
	Ret int64
	// Out holds the memory the kernel wrote for the main (e.g. read
	// data), replayed into the checker.
	Out []Region
	// MmapFixedAddr pins the checker's replayed mmap to the address ASLR
	// gave the main (§4.3.2); zero when not an address-returning map.
	MmapFixedAddr uint64
}

// NondetEvent captures a trapped nondeterministic instruction.
type NondetEvent struct {
	PC    uint64
	Value uint64
}

// SignalEvent captures a signal delivery.
type SignalEvent struct {
	Sig proc.Signal
	PC  uint64
	// Point is the segment-relative delivery point for external signals.
	Point ExecPoint
	// Fatal records that the main had no handler and was killed.
	Fatal bool
}

// Event is one record/replay log entry. Exactly one payload pointer is
// non-nil, selected by Kind.
type Event struct {
	Kind    EventKind
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
	Regs  proc.Regs
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

// encoders are coders whose buffers have grown to the packets they carried:
// Encode appends into one and allocates its result once, at its final size,
// instead of growing a fresh buffer through every packet.
var encoders = sync.Pool{New: func() any { return new(coder) }}

// Encode serializes the packet. The output is deterministic: one packet has
// exactly one encoding. Encode writes p.Version verbatim (not the package
// constant), so version-mismatch handling is testable end to end.
func Encode(p *CheckPacket) []byte {
	c := encoders.Get().(*coder)
	c.buf = c.buf[:0]
	c.packet(p)
	b := append([]byte(nil), c.buf...)
	encoders.Put(c)
	return b
}

// Decode deserializes a packet. It never panics: malformed input yields a
// typed error. Trailing bytes, out-of-range counts, non-canonical booleans
// and unknown event kinds are all rejected, so every valid byte string has
// exactly one packet (and vice versa).
func Decode(b []byte) (*CheckPacket, error) {
	c := coder{decoding: true, buf: b}
	p := &CheckPacket{}
	c.packet(p)
	if c.err == nil && c.off != len(b) {
		c.fail(fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-c.off))
	}
	if c.err != nil {
		return nil, c.err
	}
	return p, nil
}

// codeInstrBytes is the fixed encoding size of one instruction.
const codeInstrBytes = 12

// EncodeCode serializes program text: 12 bytes per instruction.
func EncodeCode(code []isa.Instr) []byte {
	c := coder{buf: make([]byte, 0, len(code)*codeInstrBytes)}
	for i := range code {
		c.instr(&code[i])
	}
	return c.buf
}

// DecodeCode deserializes program text encoded by EncodeCode.
func DecodeCode(b []byte, n int) ([]isa.Instr, error) {
	if n < 0 || n > maxCount || len(b) != n*codeInstrBytes {
		return nil, fmt.Errorf("%w: code length %d does not match %d instructions", ErrCorrupt, len(b), n)
	}
	c := coder{decoding: true, buf: b}
	code := make([]isa.Instr, n)
	for i := range code {
		c.instr(&code[i])
	}
	return code, c.err
}

// --- the layout ---------------------------------------------------------------

// packet is the wire layout: every field of the format, in order, once.
func (c *coder) packet(p *CheckPacket) {
	c.magic()
	u16(c, &p.Version)
	if c.decoding && c.err == nil && (p.Version < MinVersion || p.Version > Version) {
		c.fail(fmt.Errorf("%w: got %d, support %d..%d", ErrVersion, p.Version, MinVersion, Version))
	}
	u64(c, &p.ConfigDigest)
	u64(c, &p.TraceID)
	c.config(&p.Config)

	c.str(&p.Benchmark)
	c.str(&p.ProgName)
	u64(c, &p.Segment)

	c.point(&p.End)
	c.boolean(&p.EndIsExit)
	u64(c, &p.InstrLimit)
	u64(c, &p.MainInstrs)
	u64(c, &p.CheckerPID)
	u64(c, &p.PMUSeed)
	u64(c, &p.MaxSkid)

	u64(c, &p.CodeKey)
	u64(c, &p.CodeLen)

	st := &p.Start
	c.regs(&st.Regs)
	u64(c, &st.PC)
	u64(c, &st.BrkBase)
	u64(c, &st.Brk)
	list(c, &st.VMAs, 17, func(c *coder, v *VMA) {
		u64(c, &v.Base)
		u64(c, &v.Length)
		u8(c, &v.Prot)
		c.str(&v.Name)
	})
	list(c, &st.Pages, 17, func(c *coder, pg *PageRef) {
		u64(c, &pg.VPN)
		u64(c, &pg.Key)
		u8(c, &pg.Prot)
	})
	list(c, &st.Handlers, 9, func(c *coder, h *Handler) {
		u8(c, &h.Sig)
		u64(c, &h.PC)
	})

	list(c, &p.Events, 1, (*coder).event)

	c.regs(&p.EndState.Regs)
	u64(c, &p.EndState.PC)
	list(c, &p.EndState.Pages, 16, func(c *coder, pg *PageHash) {
		u64(c, &pg.VPN)
		u64(c, &pg.Sum)
	})
}

// config is the layout's config block, which Config.Digest hashes.
func (c *coder) config(cfg *Config) {
	u64(c, &cfg.PageSize)
	u64(c, &cfg.Quantum)
	u64(c, &cfg.SkidBuffer)
	c.f64(&cfg.TimeoutScale)
	c.boolean(&cfg.CompareStates)
	c.boolean(&cfg.SoftDirtyTracking)
	c.boolean(&cfg.CompareFullMemory)
	u64(c, &cfg.HashSeed)
}

func (c *coder) event(ev *Event) {
	u8(c, &ev.Kind)
	switch ev.Kind {
	case EvSyscall:
		s := payload(c, &ev.Syscall)
		u16(c, &s.Info.Nr)
		for i := range s.Info.Args {
			u64(c, &s.Info.Args[i])
		}
		u8(c, &s.Class)
		list(c, &s.In, 12, (*coder).region)
		u64(c, &s.Ret)
		list(c, &s.Out, 12, (*coder).region)
		u64(c, &s.MmapFixedAddr)
	case EvNondet:
		n := payload(c, &ev.Nondet)
		u64(c, &n.PC)
		u64(c, &n.Value)
	case EvSignalInternal, EvSignalExternal:
		s := payload(c, &ev.Signal)
		u8(c, &s.Sig)
		u64(c, &s.PC)
		c.point(&s.Point)
		c.boolean(&s.Fatal)
	default:
		if c.decoding {
			c.fail(fmt.Errorf("%w: unknown event kind %d", ErrCorrupt, ev.Kind))
		}
	}
}

func (c *coder) region(r *Region) {
	u64(c, &r.Addr)
	n := uint32(len(r.Data))
	u32(c, &n)
	if !c.decoding {
		c.buf = append(c.buf, r.Data...)
		return
	}
	if n > maxDataLen {
		c.fail(fmt.Errorf("%w: region length %d", ErrCorrupt, n))
		return
	}
	if b := c.take(int(n)); len(b) > 0 {
		r.Data = append([]byte(nil), b...)
	}
}

func (c *coder) point(e *ExecPoint) {
	u64(c, &e.Branches)
	u64(c, &e.PC)
}

func (c *coder) regs(r *proc.Regs) {
	for i := range r.X {
		u64(c, &r.X[i])
	}
	for i := range r.F {
		c.f64(&r.F[i])
	}
	for i := range r.V {
		for j := range r.V[i] {
			u64(c, &r.V[i][j])
		}
	}
}

func (c *coder) instr(in *isa.Instr) {
	u8(c, &in.Op)
	u8(c, &in.Rd)
	u8(c, &in.Ra)
	u8(c, &in.Rb)
	u64(c, &in.Imm)
}

// --- primitives -----------------------------------------------------------------

// coder runs the layout in one direction. Encoding appends each field to
// buf and never writes to the value it walks, not even a field's own value
// back; decoding reads each field from buf into place. A decode error
// sticks: every later read yields zero and consumes nothing.
type coder struct {
	decoding bool
	buf      []byte
	off      int // decode cursor
	err      error
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take consumes the next n input bytes, or fails with ErrTruncated.
func (c *coder) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf)-c.off < n {
		c.fail(ErrTruncated)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func u8[T ~uint8](c *coder, v *T) {
	if !c.decoding {
		c.buf = append(c.buf, uint8(*v))
	} else if b := c.take(1); b != nil {
		*v = T(b[0])
	}
}

func u16[T ~uint16](c *coder, v *T) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(*v))
	} else if b := c.take(2); b != nil {
		*v = T(binary.LittleEndian.Uint16(b))
	}
}

func u32[T ~uint32](c *coder, v *T) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	} else if b := c.take(4); b != nil {
		*v = T(binary.LittleEndian.Uint32(b))
	}
}

// u64 codes any 64-bit integer field; signed values travel two's-complement.
func u64[T ~uint64 | ~int64 | ~int](c *coder, v *T) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = T(binary.LittleEndian.Uint64(b))
	}
}

// f64 codes a float as its bit pattern, so every NaN payload survives.
func (c *coder) f64(v *float64) {
	bits := math.Float64bits(*v)
	u64(c, &bits)
	if c.decoding {
		*v = math.Float64frombits(bits)
	}
}

// boolean codes one byte, 0 or 1; decoding rejects any other value.
func (c *coder) boolean(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	u8(c, &b)
	if c.decoding {
		if b > 1 {
			c.fail(fmt.Errorf("%w: non-canonical boolean", ErrCorrupt))
		}
		*v = b == 1
	}
}

// str codes a length-prefixed string of at most maxStringLen bytes.
func (c *coder) str(s *string) {
	n := uint32(len(*s))
	u32(c, &n)
	if !c.decoding {
		c.buf = append(c.buf, *s...)
		return
	}
	if n > maxStringLen {
		c.fail(fmt.Errorf("%w: string length %d", ErrCorrupt, n))
		return
	}
	*s = string(c.take(int(n)))
}

func (c *coder) magic() {
	if !c.decoding {
		c.buf = append(c.buf, magic[:]...)
	} else if b := c.take(len(magic)); b != nil && [6]byte(b) != magic {
		c.fail(ErrMagic)
	}
}

// list codes a count-prefixed array of elements, each coded by elem.
// Decoding rejects a count the rest of the input could not hold at minElem
// bytes an element, leaves an empty array nil, and stops at the first error.
func list[T any](c *coder, s *[]T, minElem int, elem func(*coder, *T)) {
	n := uint32(len(*s))
	u32(c, &n)
	if c.decoding {
		if c.err != nil || n == 0 {
			return
		}
		if n > maxCount || int(n)*minElem > len(c.buf)-c.off {
			c.fail(fmt.Errorf("%w: count %d exceeds input", ErrCorrupt, n))
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		if c.err != nil {
			return
		}
		elem(c, &(*s)[i])
	}
}

// payload is an event's payload to code into: the one it has when
// encoding, a new one stored into the event when decoding.
func payload[T any](c *coder, p **T) *T {
	if c.decoding {
		*p = new(T)
	}
	return *p
}
