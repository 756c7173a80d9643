package core

import (
	"fmt"

	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

// This file is the replay state machine — the only one. A checker is a pure
// function of (start checkpoint, record/replay log, config); replayEngine is
// that function's steering (§4.2.2) and per-event replay (§4.3). It has two
// drivers: Runtime.stepChecker (in-process replicas, arbitration referees)
// and ReplayPacket in export.go (a checkd daemon's own substrate).
//
// The engine decides everything about the replay itself: where the checker
// is steered next, whether a stop matches the record, what a divergence is
// called and how its detail reads. The rest is its host's.

// replayHost is the driver's side of a replay.
type replayHost interface {
	// charge accounts ns of tracer work on the checker's clock under act.
	charge(act machine.Activity, ns float64)
	// diverged routes a divergence: global detection, NMR dissent, an
	// arbitration or packet verdict. The host stops dispatching the engine.
	diverged(d *DetectedError)
	// reached: the checker stands at the segment end, record consumed and
	// steering disarmed. What follows (scheduling, vote, compare) is here.
	reached()
}

type checkerPhase uint8

const (
	phaseEvents  checkerPhase = iota // consuming recorded events; end unknown or far
	phaseCounted                     // branch counter armed toward target-skid
	phaseStepped                     // breakpoint at target PC, checking counts
	phaseReached                     // at the end point, awaiting comparison
)

// replayEngine is one checker's replay state over one segment's record,
// read through seg (Log.Events, End, EndIsExit, MainInstrs, sealed).
type replayEngine struct {
	host replayHost
	cfg  *Config // TimeoutScale and the interception mechanism
	e    *sim.Engine
	seg  *Segment

	Checker *proc.Process
	Task    *sim.Task        // nil while an in-process replica waits for a core
	guest   machine.Activity // class of the checker's own guest execution

	// End-point steering state (§4.2.2).
	replayIdx    int
	phase        checkerPhase
	target       packet.ExecPoint // active steering target (signal point or segment end)
	targetIsEnd  bool
	targetActive bool
	skid         uint64 // how far short of the target the branch counter is armed

	waiting bool // caught up with an unsealed record; the main will wake it
}

func (en *replayEngine) fail(kind ErrorKind, format string, args ...any) {
	en.host.diverged(&DetectedError{Kind: kind, Segment: en.seg.Index,
		Detail: fmt.Sprintf(format, args...)})
}

func (en *replayEngine) failSig(sig proc.Signal, format string, args ...any) {
	en.host.diverged(&DetectedError{Kind: ErrCheckerException, Segment: en.seg.Index,
		Sig: sig, Detail: fmt.Sprintf(format, args...)})
}

// nextEvent returns the next unconsumed log event, or nil.
func (en *replayEngine) nextEvent() *packet.Event {
	if en.replayIdx >= len(en.seg.Log.Events) {
		return nil
	}
	return &en.seg.Log.Events[en.replayIdx]
}

// ensureTarget keeps the checker's execution-point steering machinery
// (§4.2.2) pointed at the right place. Targets, in priority order:
//
//  1. the delivery point of the next recorded external signal (§4.3.3) —
//     known as soon as the event is next in the log, sealed or not;
//  2. the segment's end point, once sealed (unless the segment ends with
//     the program exiting, which the final replayed event produces).
//
// Arming: branch-counter overflow a skid buffer short of the target, then
// a breakpoint on the target PC until the branch count matches.
func (en *replayEngine) ensureTarget() {
	seg := en.seg
	var want packet.ExecPoint
	var isEnd, active bool
	if ev := en.nextEvent(); ev != nil && ev.Kind == packet.EvSignalExternal {
		want, isEnd, active = ev.Signal.Point, false, true
	} else if seg.sealed && !seg.EndIsExit {
		want, isEnd, active = seg.End, true, true
	}
	c := en.Checker
	if !active {
		if en.targetActive {
			c.DisarmBranchCounter()
			c.ClearAllBreakpoints()
			en.targetActive = false
			en.phase = phaseEvents
		}
		return
	}
	if en.targetActive && en.target == want && en.targetIsEnd == isEnd {
		return // already armed at this target
	}
	en.target = want
	en.targetIsEnd = isEnd
	en.targetActive = true

	c.DisarmBranchCounter()
	c.ClearAllBreakpoints()
	rel := c.Branches // segment-relative: a forked checker counts from zero
	if want.Branches > rel && want.Branches-rel > en.skid {
		c.ArmBranchCounter(want.Branches - en.skid)
		en.phase = phaseCounted
	} else {
		// within the buffer (or already at/past the count): breakpoint
		// directly; the per-hit check decides reached vs overrun
		c.SetBreakpoint(want.PC)
		en.phase = phaseStepped
	}
	en.host.charge(machine.ActReplay, counterSetupNs)
}

// enterStepped switches from counting to breakpointing on the current
// target's PC.
func (en *replayEngine) enterStepped() {
	en.Checker.DisarmBranchCounter()
	en.Checker.SetBreakpoint(en.target.PC)
	en.phase = phaseStepped
	en.host.charge(machine.ActReplay, counterSetupNs)
}

// atTarget reports whether the checker is exactly at the active target.
func (en *replayEngine) atTarget() bool {
	return en.targetActive &&
		en.Checker.Branches == en.target.Branches &&
		en.Checker.PC == en.target.PC
}

// reachedTarget consumes the active target: deliver an external signal and
// re-arm, or finish the segment.
func (en *replayEngine) reachedTarget() {
	if en.targetIsEnd {
		if left := len(en.seg.Log.Events) - en.replayIdx; left > 0 {
			en.fail(ErrEventOrderMismatch,
				"checker reached segment end with %d unreplayed events", left)
			return
		}
		en.reachedEnd()
		return
	}
	// Deliver the external signal at the recorded point (§4.3.3).
	ev := en.nextEvent()
	en.replayIdx++
	en.targetActive = false
	en.Checker.DisarmBranchCounter()
	en.Checker.ClearAllBreakpoints()
	en.host.charge(machine.ActReplay, en.cfg.tracerStopNs())
	alive := en.Checker.DeliverSignal(ev.Signal.Sig)
	if ev.Signal.Fatal == alive {
		en.failSig(ev.Signal.Sig, "checker signal disposition differs from main's")
		return
	}
	if !alive {
		en.checkerHalted()
		return
	}
	en.ensureTarget()
}

// begin re-aims the steering before a dispatch. True means the checker
// already stood at its target (e.g. a signal point right at a prior stop),
// which is now consumed: nothing to dispatch this turn.
func (en *replayEngine) begin() bool {
	en.ensureTarget()
	if en.atTarget() {
		en.reachedTarget()
		return true
	}
	return false
}

// handleStop interprets the stop that ended a dispatch against the record.
func (en *replayEngine) handleStop(stop proc.Stop) {
	// Reaching the active target takes precedence over whatever the stop
	// reason says (e.g. the target lands exactly on a syscall).
	if en.atTarget() {
		en.reachedTarget()
		return
	}

	switch stop.Reason {
	case proc.StopBudget:
		// keep going

	case proc.StopSyscall:
		en.replaySyscall()
		en.ensureTarget()

	case proc.StopNondet:
		en.replayNondet()
		en.ensureTarget()

	case proc.StopSignal:
		en.replayFault(stop.Sig)
		en.ensureTarget()

	case proc.StopCounter:
		// Undershoot phase done; switch to breakpointing (§4.2.2).
		en.host.charge(machine.ActReplay, breakpointHitNs)
		en.enterStepped()

	case proc.StopBreakpoint:
		en.host.charge(machine.ActReplay, breakpointHitNs)
		rel := en.Checker.Branches
		switch {
		case en.atTarget():
			en.reachedTarget()
		case en.targetActive && rel > en.target.Branches:
			en.fail(ErrExecPointOverrun,
				"checker at %d branches, target %d", rel, en.target.Branches)
		default:
			// Same PC, earlier iteration: continue to the next hit.
		}

	case proc.StopInstrLimit:
		c := en.Checker
		en.fail(ErrCheckerTimeout,
			"checker executed %d instructions, budget %d (main %d x %.2f)",
			c.Instrs, c.InstrLimit, en.seg.MainInstrs, en.cfg.TimeoutScale)

	case proc.StopHalt:
		en.checkerHalted()
	}
}

// replaySyscall validates the checker's syscall against the record and
// applies the class-appropriate behaviour (§4.3.1).
func (en *replayEngine) replaySyscall() {
	c := en.Checker
	en.host.charge(machine.ActReplay, 2*en.cfg.tracerStopNs())

	ev := en.nextEvent()
	if ev == nil {
		if !en.seg.sealed {
			// The main has not recorded this far yet; wait for it.
			en.waiting = true
			return
		}
		en.fail(ErrSyscallMismatch,
			"checker issued syscall %v past the end of the record", oskernel.Decode(c).Nr)
		return
	}
	if ev.Kind != packet.EvSyscall {
		en.fail(ErrEventOrderMismatch, "checker at a syscall, record expects %v", ev.Kind)
		return
	}
	rec := ev.Syscall
	info := oskernel.Decode(c)
	if info != rec.Info {
		en.fail(ErrSyscallMismatch,
			"checker %v%v vs recorded %v%v", info.Nr, info.Args, rec.Info.Nr, rec.Info.Args)
		return
	}

	// Compare input data (e.g. the bytes passed to write) byte-for-byte.
	model := oskernel.ModelOf(info.Nr)
	chkIn := captureRegions(c, model.In(en.e.K, c, info.Args))
	en.host.charge(machine.ActReplay, float64(bytesIn(chkIn))*recordByteNs)
	if !regionsEqual(chkIn, rec.In) {
		en.fail(ErrSyscallMismatch, "%v input data differs", info.Nr)
		return
	}

	en.replayIdx++

	switch rec.Class {
	case oskernel.ClassLocal:
		// Both sides execute; pin ASLR'd mmaps to the recorded address
		// with MAP_FIXED (§4.3.2). Only the kernel-visible arguments are
		// rewritten — the checker's architectural registers must keep the
		// original values or the segment-end register compare would
		// diverge from the main's.
		if info.Nr == oskernel.SysMmap && rec.MmapFixedAddr != 0 {
			info.Args[0] = rec.MmapFixedAddr
			info.Args[3] |= oskernel.MapFixed
		}
		prev := en.Task.Core.SetActivity(en.guest)
		res := en.e.ExecSyscall(en.Task, info)
		en.Task.Core.SetActivity(prev)
		if res.Ret != rec.Ret {
			en.fail(ErrSyscallMismatch,
				"%v local result %d differs from recorded %d", info.Nr, res.Ret, rec.Ret)
			return
		}
		if res.Exited {
			// No local syscall exits today; a record that says one did is
			// settled like any other halt rather than left undispatchable.
			c.Exited = true
			en.checkerHalted()
			return
		}
		oskernel.Finish(c, res.Ret)
		if res.SelfSignal != proc.SigNone {
			if !c.DeliverSignal(res.SelfSignal) {
				en.checkerHalted()
			}
		}

	case oskernel.ClassGlobal, oskernel.ClassNonEffectful:
		// Replay outputs and result without touching the OS, so the
		// external effect happens exactly once (§4.3.1).
		if info.Nr == oskernel.SysExit {
			c.Exited = true
			c.ExitCode = int64(info.Args[0])
			en.checkerHalted()
			return
		}
		for _, out := range rec.Out {
			en.host.charge(machine.ActReplay, float64(len(out.Data))*recordByteNs)
			if f := c.AS.Write(out.Addr, out.Data); f != nil {
				en.fail(ErrSyscallMismatch,
					"replaying %v output into checker faulted at %#x", info.Nr, f.Addr)
				return
			}
		}
		oskernel.ReplayFinish(c, rec.Ret)
	}
}

// replayNondet feeds the recorded value of a nondeterministic instruction
// to the checker (§4.3.4) — even when the checker runs on a different core
// type whose real MIDR would differ.
func (en *replayEngine) replayNondet() {
	c := en.Checker
	en.host.charge(machine.ActReplay, en.cfg.tracerStopNs())
	ev := en.nextEvent()
	if ev == nil {
		if !en.seg.sealed {
			en.waiting = true
			return
		}
		en.fail(ErrEventOrderMismatch, "checker nondet instruction past end of record")
		return
	}
	if ev.Kind != packet.EvNondet {
		en.fail(ErrEventOrderMismatch, "checker at nondet instruction, record expects %v", ev.Kind)
		return
	}
	if ev.Nondet.PC != c.PC {
		en.fail(ErrEventOrderMismatch, "nondet at pc %d, recorded pc %d", c.PC, ev.Nondet.PC)
		return
	}
	en.replayIdx++
	// sim.FinishNondet equivalent, with the recorded value.
	ins := c.CurrentInstr()
	c.Regs.X[ins.Rd] = ev.Nondet.Value
	c.PC++
	c.Instrs++
}

// replayFault checks a checker fault against the record: the main must have
// taken the identical signal at the identical PC, otherwise the fault is an
// error manifestation (the §5.6 Exception class).
func (en *replayEngine) replayFault(sig proc.Signal) {
	c := en.Checker
	en.host.charge(machine.ActReplay, en.cfg.tracerStopNs())
	ev := en.nextEvent()
	if ev == nil && !en.seg.sealed {
		// Could be a fault the main will also take; but a fault the main
		// has not yet reached cannot be distinguished from divergence
		// without waiting — and the checker cannot be architecturally
		// ahead of the main (guarded in pickActor), so a fault here with
		// no record is divergence.
		en.failSig(sig, "checker fault %v at pc %d with no recorded event", sig, c.PC)
		return
	}
	if ev == nil || ev.Kind != packet.EvSignalInternal || ev.Signal.Sig != sig || ev.Signal.PC != c.PC {
		en.failSig(sig, "checker fault %v at pc %d diverges from record", sig, c.PC)
		return
	}
	en.replayIdx++
	alive := c.DeliverSignal(sig)
	if ev.Signal.Fatal != !alive {
		en.failSig(sig, "checker signal disposition differs from main's")
		return
	}
	if !alive {
		en.checkerHalted()
	}
}

// checkerHalted handles the checker finishing execution (exit syscall,
// halt, or fatal signal). For the final segment this is the expected end;
// anywhere else it is a divergence.
func (en *replayEngine) checkerHalted() {
	seg := en.seg
	if !seg.sealed {
		en.waiting = true // main still running this segment; wait to decide
		if en.Checker.Exited {
			// An exited checker cannot resume; if the main does not also
			// exit in this segment, the comparison below will fail.
			en.waiting = false
			en.fail(ErrCheckerExited, "checker finished before the segment was sealed")
		}
		return
	}
	if !seg.EndIsExit {
		en.fail(ErrCheckerExited, "checker exited mid-segment")
		return
	}
	if left := len(seg.Log.Events) - en.replayIdx; left > 0 {
		en.fail(ErrEventOrderMismatch, "checker exited with %d unreplayed events", left)
		return
	}
	en.reachedEnd()
}

// reachedEnd parks the checker at the segment end and hands over to the host.
func (en *replayEngine) reachedEnd() {
	en.Checker.DisarmBranchCounter()
	en.Checker.ClearAllBreakpoints()
	en.phase = phaseReached
	en.host.reached()
}

func bytesIn(regions []packet.Region) int {
	n := 0
	for _, r := range regions {
		n += len(r.Data)
	}
	return n
}

// replicaHost is the in-process runtime's side of a replica's replay.
type replicaHost struct {
	r   *Runtime
	rep *replica
}

// charge books tracer work on the replica's clock. An arbitration referee's
// work is recovery machinery, whatever its mechanism; a replica still
// queued for a core has no clock to charge.
func (h replicaHost) charge(act machine.Activity, ns float64) {
	rep := h.rep
	if rep.Task == nil {
		return
	}
	if rep.seg.arb {
		act = machine.ActRecovery
	}
	prev := rep.Task.Core.SetActivity(act)
	h.r.e.ChargeRuntime(rep.Task, ns)
	rep.Task.Core.SetActivity(prev)
}

// diverged: with a single replica (the paper's design, and arbitration
// referees) a replay divergence is exactly the global detection path; under
// NMR the replica becomes a dissenting voter instead — the segment's
// verdict waits for the majority vote.
func (h replicaHost) diverged(d *DetectedError) {
	if seg := h.rep.seg; seg.arb || len(seg.Replicas) <= 1 {
		h.r.detect(d)
		return
	}
	h.r.markDissent(h.rep, d)
}

// reached: the segment is decided once every replica is terminal (the end
// checkpoint is always available: sealing created it). Arbitration shadows
// stop here; their vote belongs to the arbitration driver.
func (h replicaHost) reached() {
	r, rep := h.r, h.rep
	rep.doneNs = rep.Task.Clock
	if rep.seg.arb {
		return
	}
	r.sched.observeCheckerDone(rep)
	r.sched.onCheckerDone(rep)
	r.maybeVote(rep.seg)
}

// newReplica wires a forked checker to the segment's record. The replica
// gets its Task when the scheduler places it.
func (r *Runtime) newReplica(seg *Segment, idx int, checker *proc.Process) *replica {
	rep := &replica{idx: idx}
	rep.replayEngine = replayEngine{
		host: replicaHost{r, rep}, cfg: &r.cfg, e: r.e, seg: seg,
		Checker: checker, guest: machine.ActGuestChecker, skid: r.cfg.SkidBuffer,
	}
	if seg.arb {
		rep.guest = machine.ActRecovery
	}
	return rep
}

// stepChecker dispatches a checker replica for one quantum and hands the
// stop to its replay engine.
func (r *Runtime) stepChecker(rep *replica) {
	seg := rep.seg
	c := rep.Checker
	if rep.startNs == 0 {
		rep.startNs = rep.Task.Clock
	}
	if r.cfg.ReplicaHook != nil && !seg.arb {
		r.cfg.ReplicaHook(seg.Index, rep.idx, c, rep.Task.Clock-rep.startNs)
	}
	if rep.begin() {
		return
	}

	// The checker's dispatch quantum is deliberately offset from the
	// main's: otherwise its budget stops land on exactly the architectural
	// positions where the main was sliced, the end point is "reached" at a
	// budget stop, and the counter/skid/breakpoint protocol of §4.2.2
	// never has to do its job. Real checkers get no such alignment.
	before := c.UserNs + c.SysNs
	beforeInstrs := c.Instrs
	prev := rep.Task.Core.SetActivity(rep.guest)
	stop := r.e.Run(rep.Task, r.cfg.Quantum+37+rep.quantumOff)
	rep.Task.Core.SetActivity(prev)
	delta := c.UserNs + c.SysNs - before
	if rep.onBig {
		rep.bigNs += delta
		rep.bigInstrs += c.Instrs - beforeInstrs
	} else {
		rep.littleNs += delta
		rep.littleInstrs += c.Instrs - beforeInstrs
	}
	rep.checkerInstrs = c.Instrs

	rep.handleStop(stop)
}
