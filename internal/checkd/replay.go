// Package checkd implements the offloaded checking service: an executor
// that accepts portable check packets (internal/packet) and independently
// re-runs Parallaft's replay-and-compare protocol against a fresh simulated
// substrate, with no access to the originating runtime's state.
//
// A checker is a pure function of (start checkpoint, record/replay log,
// config): the packet carries all three, so an external daemon can produce
// the exact verdict the in-process checker would have produced — pass/fail,
// the mismatching segment, and the error kind. This package owns what is
// genuinely different about checking from a packet: rebuilding the start
// state from content-addressed chunks onto a private machine and kernel
// (newRunner), comparing the end state against wire hashes instead of a
// live checkpoint's frames (finishAtEnd), and the executor and transport
// around them. The replay in between — steering, per-event validation,
// every replay-raised detection and its wording — is core's engine, entered
// through core.ReplayPacket; there is no second copy to keep in step.
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
	"parallaft/internal/telemetry/profile"
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
}

// InfraErr returns the typed infrastructure error behind Infra, or nil. For
// a packet abandoned after exhausting its chunk-miss retries this unwraps
// to ErrMissingChunk.
func (v Verdict) InfraErr() error { return v.infraErr }

// NewInfraVerdict builds the verdict for a packet that could not be checked
// at all: the dispatcher-side analogue of the executor's retry-exhausted
// path. err is kept typed (InfraErr) as well as rendered into Infra, so
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

// RunPacket checks one packet against a fresh substrate and returns its
// verdict. The returned error is infrastructural only (a chunk missing from
// the store — possibly transient under a streaming transport — or a
// malformed packet); detections are reported in the Verdict, never as an
// error.
func RunPacket(store *pagestore.Store, pkt *packet.CheckPacket) (Verdict, error) {
	v, _, err := RunPacketSlice(store, pkt)
	return v, err
}

// RunPacketSlice is RunPacket plus the replay's ledger slice: the simulated
// time and modeled energy this daemon's private substrate spent reproducing
// the segment, keyed by the packet's trace ID. The slice's HostNs is zero —
// wall-clock cost belongs to whoever drove the replay (the executor measures
// it around its retry loop). On an infrastructure error the slice is zero:
// nothing was replayed, so there is nothing to attribute.
func RunPacketSlice(store *pagestore.Store, pkt *packet.CheckPacket) (Verdict, profile.Slice, error) {
	v := Verdict{
		Benchmark: pkt.Benchmark,
		ProgName:  pkt.ProgName,
		Segment:   pkt.Segment,
	}
	r, err := newRunner(store, pkt)
	if err != nil {
		return v, profile.Slice{}, err
	}
	d := core.ReplayPacket(r.e, r.task, pkt)
	if d == nil {
		d = r.finishAtEnd()
	}
	if d == nil {
		v.OK = true
	} else {
		v.ErrorKind = d.Kind.String()
		v.Detail = d.Detail
	}
	sl := profile.Slice{
		TraceID: pkt.TraceID,
		SimNs:   r.task.Clock,
		SimJ:    r.e.M.EnergyJ(r.task.Clock),
	}
	return v, sl, nil
}

// runner is one packet's checker substrate.
type runner struct {
	pkt  *packet.CheckPacket
	e    *sim.Engine
	task *sim.Task
}

// newRunner reconstructs the checker substrate from the packet: a
// big-core-only machine (the daemon has no reason to model little cores —
// verdicts are frequency-independent), a fresh kernel at the recorded page
// size, and a process whose address space, registers, handlers and PMU seed
// match the start checkpoint exactly.
func newRunner(store *pagestore.Store, pkt *packet.CheckPacket) (*runner, error) {
	cfg := &pkt.Config

	codeBytes := store.Get(pkt.CodeKey)
	if codeBytes == nil {
		return nil, fmt.Errorf("%w: code chunk %#x", ErrMissingChunk, uint64(pkt.CodeKey))
	}
	code, err := packet.DecodeCode(codeBytes, pkt.CodeLen)
	if err != nil {
		return nil, fmt.Errorf("checkd: packet %s seg %d: %w", pkt.ProgName, pkt.Segment, err)
	}

	as, err := rebuildAddressSpace(store, cfg.PageSize, &pkt.Start)
	if err != nil {
		return nil, err
	}

	m := machine.New(machine.BigOnly())
	k := oskernel.NewKernel(cfg.PageSize, 0)
	l := oskernel.NewLoader(k, cfg.PageSize, 0)
	e := sim.New(m, k, l)

	c := proc.New(pkt.CheckerPID, 1, pkt.ProgName, code, as, pkt.PMUSeed)
	k.Register(c.PID)
	c.Regs = pkt.Start.Regs.Regs()
	c.PC = pkt.Start.PC
	c.InstrLimit = pkt.InstrLimit
	c.SetMaxSkid(uint64(pkt.MaxSkid))
	for _, h := range pkt.Start.Handlers {
		c.Handlers[proc.Signal(h.Sig)] = h.PC
	}

	return &runner{pkt: pkt, e: e, task: e.NewTask(c, m.BigCores()[0], 0)}, nil
}

// rebuildAddressSpace reconstructs a checkpointed address space from page
// refs. Pages are materialised under RW protection first (writes into
// non-writable pages fault), then VMA- and page-level protections are
// restored: a whole-VMA Protect for every non-RW VMA fixes both the VMA
// record and its pages, and a per-page fixup handles pages whose individual
// protection diverged from their VMA's (an mprotect of a sub-range).
func rebuildAddressSpace(store *pagestore.Store, pageSize uint64, st *packet.StartState) (*mem.AddressSpace, error) {
	as := mem.NewAddressSpace(pageSize)
	vmaProt := make(map[uint64]mem.Prot) // VPN -> owning VMA's final prot
	for _, v := range st.VMAs {
		if err := as.Map(v.Base, v.Length, mem.ProtRW, v.Name); err != nil {
			return nil, fmt.Errorf("checkd: rebuilding vma %#x+%#x: %v", v.Base, v.Length, err)
		}
		for vpn := v.Base / pageSize; vpn < (v.Base+v.Length)/pageSize; vpn++ {
			vmaProt[vpn] = mem.Prot(v.Prot)
		}
	}
	for _, pg := range st.Pages {
		data := store.Get(pg.Key)
		if data == nil {
			return nil, fmt.Errorf("%w: page %#x chunk %#x", ErrMissingChunk, pg.VPN*pageSize, uint64(pg.Key))
		}
		if f := as.Write(pg.VPN*pageSize, data); f != nil {
			return nil, fmt.Errorf("checkd: restoring page %#x faulted: %v", pg.VPN*pageSize, f)
		}
	}
	for _, v := range st.VMAs {
		if mem.Prot(v.Prot) != mem.ProtRW {
			if err := as.Protect(v.Base, v.Length, mem.Prot(v.Prot)); err != nil {
				return nil, fmt.Errorf("checkd: restoring vma prot %#x+%#x: %v", v.Base, v.Length, err)
			}
		}
	}
	for _, pg := range st.Pages {
		if p := mem.Prot(pg.Prot); p != vmaProt[pg.VPN] {
			if err := as.Protect(pg.VPN*pageSize, pageSize, p); err != nil {
				return nil, fmt.Errorf("checkd: restoring page prot %#x: %v", pg.VPN*pageSize, err)
			}
		}
	}
	as.RestoreBrk(st.BrkBase, st.Brk)
	as.ClearSoftDirty()
	return as, nil
}

// finishAtEnd runs the end-of-segment comparison: registers first (a
// register mismatch wins over any memory mismatch, matching core), then the
// PC, then the expected page hashes against the reconstructed checker's
// full page set.
func (r *runner) finishAtEnd() *core.DetectedError {
	c := r.task.P
	if !r.pkt.Config.CompareStates {
		return nil // RAFT model: no state comparison at segment ends
	}
	mismatch := func(kind core.ErrorKind, format string, args ...any) *core.DetectedError {
		return &core.DetectedError{Kind: kind, Segment: r.pkt.Segment, Detail: fmt.Sprintf(format, args...)}
	}

	ref := r.pkt.EndState.Regs.Regs()
	if !c.Regs.Equal(&ref) {
		return mismatch(core.ErrRegMismatch,
			"registers differ at segment end (checker/checkpoint):%s", c.Regs.Diff(&ref))
	}
	if c.PC != r.pkt.EndState.PC {
		return mismatch(core.ErrRegMismatch,
			"pc %d differs from checkpoint pc %d", c.PC, r.pkt.EndState.PC)
	}

	expected := make([]compare.ExpectedPage, len(r.pkt.EndState.Pages))
	for i, ph := range r.pkt.EndState.Pages {
		expected[i] = compare.ExpectedPage{VPN: ph.VPN, Sum: ph.Sum}
	}
	if m := compare.RunAgainstHashes(expected, c.AS, r.pkt.Config.HashSeed); m != nil {
		switch m.Kind {
		case compare.MismatchStructural:
			return mismatch(core.ErrStructuralMismatch, "page %#x mapped on only one side", m.VPN)
		case compare.MismatchContent:
			return mismatch(core.ErrMemMismatch, "page %#x content hash differs", m.VPN)
		}
	}
	return nil
}
