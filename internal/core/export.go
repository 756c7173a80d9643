package core

import (
	"sort"

	"parallaft/internal/machine"
	"parallaft/internal/mem"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
)

// This file owns the core↔wire mapping: exportSegment turns a sealed
// segment into a check packet, ReplayPacket runs a packet through the replay
// engine. The record needs no mapping: a segment's log holds packet.Events,
// so a sealed log becomes the packet's Events, and a packet's Events the
// replayed log, without a copy.

// PageHashSeed is the seed of the end-of-segment page hashes. Exported so
// packet tooling can build pagestores whose keys share the comparison
// subsystem's per-frame hash memos.
const PageHashSeed uint64 = hashSeed

// exportConfig projects the verdict-relevant slice of the runtime config
// into wire form. Scheduling, DVFS and cost knobs deliberately stay out:
// they move timing and energy, never the verdict.
func (r *Runtime) exportConfig() packet.Config {
	return packet.Config{
		PageSize:          r.main.AS.PageSize(),
		Quantum:           sim.DefaultQuantum,
		SkidBuffer:        r.cfg.SkidBuffer,
		TimeoutScale:      r.cfg.TimeoutScale,
		CompareStates:     r.cfg.CompareStates,
		SoftDirtyTracking: r.cfg.Tracking == TrackSoftDirty,
		CompareFullMemory: r.cfg.CompareFullMemory,
		HashSeed:          hashSeed,
	}
}

// exportSegment builds one check packet from a sealed segment and hands it
// to the configured exporter. Called at the end of onSeal, when the
// segment's end point, instruction budget, end checkpoint and full event
// log are all final. Export failures are latched into r.exportErr and
// surfaced as an infrastructure error when Run returns — never as a
// detection.
func (r *Runtime) exportSegment(seg *Segment) error {
	exp := r.cfg.Export
	cfg := r.exportConfig()
	p := &packet.CheckPacket{
		Version:      packet.Version,
		ConfigDigest: cfg.Digest(),
		// Deterministic per-segment causal-trace ID: the same packet gets
		// the same ID on every run, so trace goldens stay stable and remote
		// checkers tag their spans onto the chain opened at seal time.
		TraceID:    telemetry.NewTraceID(r.main.Name, seg.Index),
		Config:     cfg,
		Benchmark:  r.stats.Benchmark,
		ProgName:   r.main.Name,
		Segment:    seg.Index,
		End:        seg.End,
		EndIsExit:  seg.EndIsExit,
		InstrLimit: seg.chk().Checker.InstrLimit,
		MainInstrs: seg.MainInstrs,
		CheckerPID: seg.chk().Checker.PID,
		PMUSeed:    r.e.L.PMUSeed(seg.chk().Checker.PID),
		MaxSkid:    int(seg.chk().Checker.MaxSkid()),
		// Program text is content-addressed like any page: interning it
		// per segment costs one hash and dedups to a single stored copy.
		CodeKey: exp.Store.Put(packet.EncodeCode(r.main.Code)),
		CodeLen: len(r.main.Code),
	}

	exportStartState(&p.Start, seg.StartCP.p, exp)

	// A sealed log is never appended to, so the packet shares it.
	p.Events = seg.Log.Events

	end := seg.EndCP.p
	p.EndState.Regs = end.Regs
	p.EndState.PC = end.PC
	endRefs := end.AS.FrameRefs()
	p.EndState.Pages = make([]packet.PageHash, 0, len(endRefs))
	for _, fr := range endRefs {
		sum, _ := fr.Frame.ContentHash(hashSeed)
		p.EndState.Pages = append(p.EndState.Pages, packet.PageHash{VPN: fr.VPN, Sum: sum})
	}

	return exp.Sink(p)
}

// exportStartState serializes a checkpointed process: registers, VMAs,
// handlers, brk, and every mapped page interned into the exporter's store
// (COW sharing across consecutive checkpoints dedups automatically —
// identical frames carry identical content keys).
func exportStartState(st *packet.StartState, cp *proc.Process, exp *packet.Exporter) {
	st.Regs = cp.Regs
	st.PC = cp.PC
	st.BrkBase = cp.AS.BrkBase()
	st.Brk = cp.AS.CurrentBrk()

	for _, v := range cp.AS.VMAs() {
		st.VMAs = append(st.VMAs, packet.VMA{
			Base: v.Base, Length: v.Length, Prot: uint8(v.Prot), Name: v.Name,
		})
	}

	// Batch the whole checkpoint into one store operation: hashes happen
	// outside the store lock, and the map inserts take it once instead of
	// once per page.
	refs := cp.AS.FrameRefs()
	frames := make([]*mem.Frame, 0, len(refs))
	for _, fr := range refs {
		frames = append(frames, fr.Frame)
	}
	keys := exp.Store.PutFrames(frames, make([]pagestore.Key, 0, len(frames)))
	st.Pages = make([]packet.PageRef, 0, len(refs))
	for i, fr := range refs {
		st.Pages = append(st.Pages, packet.PageRef{
			VPN:  fr.VPN,
			Key:  keys[i],
			Prot: uint8(fr.Prot),
		})
	}

	st.Handlers = make([]packet.Handler, 0, len(cp.Handlers))
	for sig, pc := range cp.Handlers {
		st.Handlers = append(st.Handlers, packet.Handler{Sig: uint8(sig), PC: pc})
	}
	sort.Slice(st.Handlers, func(i, j int) bool { return st.Handlers[i].Sig < st.Handlers[j].Sig })
}

// packetHost is the replay host of a re-check on no machine, a packet's or
// a retained segment's: it latches the first divergence. Tracer work costs
// it nothing — its verdict is the whole product.
type packetHost struct{ detected *DetectedError }

func (h *packetHost) charge(machine.Activity, float64) {}
func (h *packetHost) reached()                         {}
func (h *packetHost) diverged(d *DetectedError) {
	if h.detected == nil {
		h.detected = d
	}
}

// ReplayPacket drives task — a checker substrate the caller rebuilt from
// pkt's start state — through the packet's record with the in-process replay
// engine. It returns nil once the checker stands at the recorded segment end
// with every event replayed (the end-state comparison is the caller's), or
// the divergence exactly as the in-process runtime words it. A packet's
// record is complete by construction, so the engine's wait-for-the-main
// states are never entered.
func ReplayPacket(e *sim.Engine, task *sim.Task, pkt *packet.CheckPacket) *DetectedError {
	cfg := Config{
		SkidBuffer:   pkt.Config.SkidBuffer,
		TimeoutScale: pkt.Config.TimeoutScale,
	}
	seg := Segment{
		Index:      pkt.Segment,
		End:        pkt.End,
		EndIsExit:  pkt.EndIsExit,
		MainInstrs: pkt.MainInstrs,
		sealed:     true,
	}
	seg.Log.Events = pkt.Events
	var h packetHost
	en := replayEngine{host: &h, cfg: &cfg, e: e, seg: &seg,
		Checker: task.P, Task: task, skid: cfg.SkidBuffer}
	for h.detected == nil && en.phase != phaseReached {
		if en.begin() {
			continue
		}
		// Same deliberate quantum offset as in-process checkers (stepChecker).
		en.handleStop(e.Run(task, pkt.Config.Quantum+37))
	}
	return h.detected
}
