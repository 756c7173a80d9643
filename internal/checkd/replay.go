// Package checkd implements the offloaded checking service: an executor
// that accepts portable check packets (internal/packet) and independently
// re-runs Parallaft's replay-and-compare protocol on a simulated substrate of
// its own, with no access to the originating runtime's state.
//
// A checker is a pure function of (start checkpoint, record/replay log,
// config): the packet carries all three, so an external daemon can produce
// the exact verdict the in-process checker would have produced — pass/fail,
// the mismatching segment, and the error kind. This package owns what is
// genuinely different about checking from a packet: the start state rebuilt
// from content-addressed chunks (rebuildAddressSpace), the end state compared
// against wire hashes instead of a live checkpoint's frames
// (endStateMismatch), and the executor and transport around them. The replay
// in between — steering, per-event validation, every replay-raised detection
// and its wording — is core's engine, entered through core.ReplayPacket, and
// the end-state detections are worded by core too (core.EndRegMismatch,
// core.EndMemMismatch); there is no second copy of either to keep in step.
//
// The transport is a frame protocol (transport.go has the table) with one
// implementation of each half: Server takes a connection's chunks and
// packets into an Executor of its own and answers each packet with one 'V'
// frame, a Reply — the verdict plus, for a traced packet, the remote-verify
// span the node recorded; Session is the client (its contract is on the
// type), and CheckOver and internal/checkfarm are both written over it.
//
// Becoming a checker is cheap the way it is in process, where a checker is a
// copy-on-write fork: each executor worker owns one long-lived checker, and a
// packet's start pages enter its address space by reference, as frames over
// the store's chunk bytes that the first guest store copies — a packet costs
// what its segment dirties, not what it maps. Two rules keep that safe. The
// checker holds a reference of its own on every frame it maps
// (mem.NewSharedFrame), so chunk bytes are never written. And a frame's
// content hash is computed from its bytes on the worker that uses it — kept
// on the frame from packet to packet, never taken from the chunk's key — so a
// chunk that does not hold what its key promises fails the end-state
// comparison like any other wrong byte. None of it reaches a verdict, which
// is that of a checker built from scratch with private pages.
// The checker runs on no machine, so it has no cache model and keeps no
// clock, which no verdict reads: execution points are branch counts and PCs,
// the timeout counts instructions and skid comes from the packet's PMU seed.
package checkd

import (
	"fmt"

	"parallaft/internal/compare"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/mem"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
)

// Verdict is the outcome of checking one packet. It mirrors what the
// in-process runtime reports on detection: pass/fail, the segment index,
// and the error kind string (core.ErrorKind.String() values).
type Verdict struct {
	Seq       int    `json:"seq"` // submission order, assigned by the executor
	Benchmark string `json:"benchmark"`
	ProgName  string `json:"prog"`
	Segment   int    `json:"segment"`
	OK        bool   `json:"ok"`
	ErrorKind string `json:"error_kind,omitempty"` // set when !OK
	Detail    string `json:"detail,omitempty"`
	Infra     string `json:"infra,omitempty"` // infrastructure failure; not a detection

	// infraErr is the typed error behind Infra, so programmatic consumers
	// can errors.Is against sentinels like ErrMissingChunk instead of
	// string-matching. It deliberately stays off the wire (unexported):
	// Verdicts round-tripped through JSON keep only the Infra text.
	infraErr error

	// span is the remote-verify span the executor recorded for this verdict,
	// for the socket server to put in the Reply; nil unless Options.observe.
	span *telemetry.StageSpan
}

// InfraErr returns the typed infrastructure error behind Infra, or nil. For
// a packet that names a chunk the store lacks this unwraps to
// ErrMissingChunk.
func (v Verdict) InfraErr() error { return v.infraErr }

// NewInfraVerdict builds the verdict for a packet that could not be checked
// at all: the dispatcher-side analogue of the executor's missing-chunk
// verdict. err is kept typed (InfraErr) as well as rendered into Infra, so
// consumers can errors.Is against sentinels like checkfarm's ErrNoNodes.
// The caller assigns Seq.
func NewInfraVerdict(pkt *packet.CheckPacket, err error) Verdict {
	return Verdict{
		Benchmark: pkt.Benchmark,
		ProgName:  pkt.ProgName,
		Segment:   pkt.Segment,
		OK:        false,
		Infra:     err.Error(),
		infraErr:  err,
	}
}

func (v Verdict) String() string {
	if v.Infra != "" {
		return fmt.Sprintf("%s seg %d: INFRA: %s", v.ProgName, v.Segment, v.Infra)
	}
	if v.OK {
		return fmt.Sprintf("%s seg %d: ok", v.ProgName, v.Segment)
	}
	return fmt.Sprintf("%s seg %d: %s: %s", v.ProgName, v.Segment, v.ErrorKind, v.Detail)
}

// Tally counts verdicts by class: passed, diverged (a detection), or an
// infrastructure failure.
type Tally struct {
	Verdicts int `json:"verdicts"`
	OK       int `json:"ok"`
	Diverged int `json:"diverged"`
	Infra    int `json:"infra"`
}

// Add counts one verdict.
func (t *Tally) Add(v Verdict) {
	t.Verdicts++
	switch {
	case v.Infra != "":
		t.Infra++
	case v.OK:
		t.OK++
	default:
		t.Diverged++
	}
}

// Err reports the campaign-level failure: a run of segments is only clean
// when every one came back with a passing verdict.
func (t Tally) Err() error {
	if t.Diverged > 0 || t.Infra > 0 {
		return fmt.Errorf("%d of %d segment verdicts failed (%d diverged, %d infrastructure)",
			t.Diverged+t.Infra, t.Verdicts, t.Diverged, t.Infra)
	}
	return nil
}

// checker is one worker's long-lived substrate: what of a packet's checker
// does not depend on the packet, plus what the next packet is likely to share
// with this one. It belongs to one goroutine.
type checker struct {
	// m and core are nil: the checker replays with no machine and charges
	// nothing. Tests set them to replay timed on a machine of their choice.
	m    *machine.Machine
	core *machine.Core

	// frames holds the previous packet's start-state frames, and only those,
	// by chunk key: consecutive segments share most of their pages, and a
	// reused frame brings the content hash this worker computed for it.
	// Replacing the set after every rebuild bounds it to one address space
	// of frame headers. The map's reference is the one mem.NewSharedFrame
	// asks its creator to hold.
	frames map[pagestore.Key]*mem.Frame

	// zero backs every page a packet maps but lists no chunk for, so such a
	// page costs a page-table entry, not a page. The checker holds its
	// creator reference, as it does for frames.
	zero *mem.Frame
}

func newChecker() *checker { return &checker{} }

// check runs one packet: start state rebuilt with a fresh kernel, loader,
// engine and process (they carry per-run state and cost little), the record
// replayed by core's engine, the end state compared against the wire hashes.
// The returned error is infrastructural only (a missing chunk, possibly
// transient under a streaming transport, or a packet no substrate can be
// built from); detections are reported in the Verdict, never as an error.
func (c *checker) check(store *pagestore.Store, pkt *packet.CheckPacket) (Verdict, error) {
	v := Verdict{
		Benchmark: pkt.Benchmark,
		ProgName:  pkt.ProgName,
		Segment:   pkt.Segment,
	}
	cfg := &pkt.Config

	codeBytes := store.Get(pkt.CodeKey)
	if codeBytes == nil {
		return v, fmt.Errorf("%w: code chunk %#x", ErrMissingChunk, uint64(pkt.CodeKey))
	}
	code, err := packet.DecodeCode(codeBytes, pkt.CodeLen)
	if err != nil {
		return v, fmt.Errorf("checkd: packet %s seg %d: %w", pkt.ProgName, pkt.Segment, err)
	}

	as, err := c.rebuildAddressSpace(store, cfg.PageSize, &pkt.Start)
	if err != nil {
		return v, err
	}
	// Dropping the page table's references returns every adopted frame the
	// replay did not copy to MapCount 1 — the checker's own.
	defer as.Release()

	k := oskernel.NewKernel(cfg.PageSize, 0)
	l := oskernel.NewLoader(k, cfg.PageSize, 0)
	e := sim.New(c.m, k, l)

	p := proc.New(pkt.CheckerPID, 1, pkt.ProgName, code, as, pkt.PMUSeed)
	k.Register(p.PID)
	p.Regs = pkt.Start.Regs
	p.PC = pkt.Start.PC
	p.InstrLimit = pkt.InstrLimit
	p.SetMaxSkid(uint64(pkt.MaxSkid))
	for _, h := range pkt.Start.Handlers {
		p.Handlers[proc.Signal(h.Sig)] = h.PC
	}
	task := e.NewTask(p, c.core, 0)

	d := core.ReplayPacket(e, task, pkt)
	if d == nil {
		d = endStateMismatch(pkt, p)
	}
	if d == nil {
		v.OK = true
	} else {
		v.ErrorKind = d.Kind.String()
		v.Detail = d.Detail
	}
	return v, nil
}

// maxUnbackedPages bounds the pages a start state maps without listing them:
// each costs a page-table entry here and no bytes on the wire.
const maxUnbackedPages = 1 << 16

// rebuildAddressSpace reconstructs a checkpointed address space from page
// refs at a cost independent of the pages' size: every page enters by
// reference, as a shared frame over its chunk's bytes under its recorded
// protection, and the replay's first store to it copies. A chunk is trusted
// for nothing but its bytes (see the package comment). A start state no
// address space can be built from — overlapping or unaligned VMAs, a VMA
// running past 2^64, a chunk that is not one page long, a page outside every
// VMA or listed twice, more than maxUnbackedPages mapped pages with no chunk
// — is ErrUnrunnable.
func (c *checker) rebuildAddressSpace(store *pagestore.Store, pageSize uint64, st *packet.StartState) (_ *mem.AddressSpace, err error) {
	as := mem.NewAddressSpace(pageSize)
	defer func() {
		if err != nil {
			as.Release() // the next packet must find the cached frames unshared
		}
	}()
	var vmaPages uint64
	for _, v := range st.VMAs {
		if err := as.Reserve(v.Base, v.Length, mem.Prot(v.Prot), v.Name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnrunnable, err)
		}
		vmaPages += v.Length / pageSize
	}
	used := make(map[pagestore.Key]*mem.Frame, len(st.Pages))
	for _, pg := range st.Pages {
		f := c.frames[pg.Key]
		if f == nil {
			f = used[pg.Key]
		}
		if f == nil {
			data := store.Get(pg.Key)
			if data == nil {
				return nil, fmt.Errorf("%w: page %#x chunk %#x", ErrMissingChunk, pg.VPN*pageSize, uint64(pg.Key))
			}
			f = mem.NewSharedFrame(data)
		}
		used[pg.Key] = f
		if err := as.AdoptFrame(pg.VPN, f, mem.Prot(pg.Prot)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnrunnable, err)
		}
	}
	if unbacked := vmaPages - uint64(as.PageCount()); unbacked != 0 {
		// A mapped page the packet lists no chunk for reads as zeroes. The
		// exporter lists every page, so this is for foreign packets only.
		if unbacked > maxUnbackedPages {
			return nil, fmt.Errorf("%w: %d mapped pages have no chunk, more than %d", ErrUnrunnable, unbacked, maxUnbackedPages)
		}
		if c.zero == nil || uint64(len(c.zero.Data())) != pageSize {
			c.zero = mem.NewSharedFrame(make([]byte, pageSize))
		}
		for _, v := range st.VMAs {
			for vpn := v.Base / pageSize; vpn < (v.Base+v.Length)/pageSize; vpn++ {
				if as.FrameAt(vpn) == nil {
					as.AdoptFrame(vpn, c.zero, mem.Prot(v.Prot)) //nolint:errcheck // an empty page of a reserved VMA
				}
			}
		}
	}
	as.RestoreBrk(st.BrkBase, st.Brk)
	c.frames = used
	return as, nil
}

// endStateMismatch runs the end-of-segment comparison: registers first (a
// register mismatch wins over any memory mismatch, matching core), then the
// PC, then the expected page hashes against the checker's full page set.
func endStateMismatch(pkt *packet.CheckPacket, p *proc.Process) *core.DetectedError {
	if !pkt.Config.CompareStates {
		return nil // RAFT model: no state comparison at segment ends
	}
	if d := core.EndRegMismatch(pkt.Segment, p, &pkt.EndState.Regs, pkt.EndState.PC); d != nil {
		return d
	}
	expected := make([]compare.ExpectedPage, len(pkt.EndState.Pages))
	for i, ph := range pkt.EndState.Pages {
		expected[i] = compare.ExpectedPage{VPN: ph.VPN, Sum: ph.Sum}
	}
	return core.EndMemMismatch(pkt.Segment, compare.RunAgainstHashes(expected, p.AS, pkt.Config.HashSeed))
}
