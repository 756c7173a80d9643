package core

import (
	"fmt"
	"time"

	"parallaft/internal/asm"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
)

// Run protects one program execution end to end and returns the collected
// statistics. On a detected divergence the application is terminated (as in
// §4.4) and the detection is reported in the stats; Run itself only returns
// an error for infrastructure failures.
func (r *Runtime) Run(prog *asm.Program) (*RunStats, error) {
	main, err := r.e.L.Exec(prog)
	if err != nil {
		return nil, err
	}
	r.main = main
	r.mainCore.SetMaxFreq()
	r.mainTask = r.e.NewTask(main, r.mainCore, 0)
	r.stats.Benchmark = prog.Name
	r.nextSampleNs = sim.PSSSampleIntervalNs
	if r.cfg.Profiler != nil {
		r.cfg.Profiler.SetProgram(prog)
	}
	r.attachSampler(main, "main")

	// The first boundary is program start: checkpoint plus first checker.
	// Then the actor with the earliest clock steps until every actor is
	// done or a detection stands.
	r.startSegment()
	for {
		for r.detected == nil {
			actor, ok := r.pickActor()
			if !ok {
				break // everything finished
			}
			if actor.rep == nil {
				if err := r.stepMain(); err != nil {
					return nil, err
				}
				continue
			}
			r.stepChecker(actor.rep)
		}
		if r.detected == nil || !r.cfg.EnableRecovery || !r.tryRecover() {
			break
		}
	}

	r.finish()
	if r.exportErr != nil {
		return nil, fmt.Errorf("core: packet export failed: %w", r.exportErr)
	}
	return &r.stats, nil
}

// actorRef is either the main task or a checker replica.
type actorRef struct {
	task *sim.Task
	rep  *replica
}

// pickActor returns the runnable actor with the earliest clock.
func (r *Runtime) pickActor() (actorRef, bool) {
	var best actorRef
	found := false
	bestClock := 0.0
	consider := func(a actorRef, clock float64) {
		if !found || clock < bestClock {
			best = a
			found = true
			bestClock = clock
		}
	}
	if !r.main.Exited {
		if r.mainBlocked() {
			r.mainStalled = true
		} else {
			consider(actorRef{task: r.mainTask}, r.mainTask.Clock)
		}
	}
	for _, seg := range r.segments {
		if seg.compared {
			continue
		}
		for _, rep := range seg.Replicas {
			// A waiting replica is blocked on the main recording more events;
			// one ahead of the main must not outrun it architecturally.
			if rep.Task != nil && !rep.terminal() && !rep.Checker.Exited && !rep.waiting && !r.checkerAheadOfMain(rep) {
				consider(actorRef{task: rep.Task, rep: rep}, rep.Task.Clock)
			}
		}
	}
	if !found && !r.main.Exited && r.mainBlocked() {
		// Deadlock guard: the main is stalled on MaxLiveSegments but no
		// checker can run. Should not happen; surface it.
		panic("core: scheduler deadlock: main stalled with no runnable checker")
	}
	return best, found
}

// liveSegmentsExceeded reports whether the live-segment bound blocks the
// main (§3.4: the bound caps detection latency and checkpoint memory).
func (r *Runtime) liveSegmentsExceeded() bool {
	live := 0
	for _, s := range r.segments {
		if !s.compared {
			live++
		}
	}
	return live > r.cfg.MaxLiveSegments
}

// uncomparedOthers counts unverified segments other than the (unsealed)
// current one.
func (r *Runtime) uncomparedOthers() int {
	n := 0
	for _, s := range r.segments {
		if s != r.current && !s.compared {
			n++
		}
	}
	return n
}

// mainBlocked reports whether the main must wait: on the live-segment
// bound, or on a containment barrier draining outstanding segments.
func (r *Runtime) mainBlocked() bool {
	if r.liveSegmentsExceeded() {
		return true
	}
	return r.containWait && r.uncomparedOthers() > 0
}

// checkerAheadOfMain prevents a checker replica in an unsealed segment from
// running architecturally past the main's current position (its segment end
// is not yet known, so overtaking could overshoot the eventual boundary).
func (r *Runtime) checkerAheadOfMain(rep *replica) bool {
	if rep.seg.sealed {
		return false
	}
	mainRel := r.main.Branches - rep.seg.mainStartBranches
	margin := uint64(sim.DefaultQuantum) // conservative: one quantum of branches
	return rep.Checker.Branches+margin >= mainRel
}

// stepMain dispatches the main process for one quantum and handles its stop.
func (r *Runtime) stepMain() error {
	if r.e.MaxInstr != 0 && r.main.Instrs > r.e.MaxInstr {
		return fmt.Errorf("core: %s exceeded instruction cap %d", r.stats.Benchmark, r.e.MaxInstr)
	}
	if r.cfg.MainHook != nil {
		r.cfg.MainHook(r.main, r.mainTask.Clock)
	}
	prev := r.mainTask.Core.SetActivity(machine.ActGuestMain)
	stop := r.e.Run(r.mainTask, sim.DefaultQuantum)
	r.mainTask.Core.SetActivity(prev)
	r.samplePSS()
	r.cfg.Windows.Tick(r.mainTask.Clock)

	switch stop.Reason {
	case proc.StopBudget:
		if r.sliceDue() {
			r.takeBoundary()
		}
	case proc.StopHalt:
		r.sealFinal()
	case proc.StopSyscall:
		if err := r.recordSyscall(); err != nil {
			return err
		}
	case proc.StopNondet:
		r.recordNondet()
	case proc.StopSignal:
		r.recordInternalSignal(stop.Sig)
	default:
		return fmt.Errorf("core: unexpected main stop %v", stop.Reason)
	}
	return nil
}

// sliceDue checks the slicing period against user cycles (or instructions
// on instruction-sliced platforms, §5.8).
func (r *Runtime) sliceDue() bool {
	if r.current == nil || r.cfg.SlicePeriodCycles == 0 {
		return false
	}
	if r.e.M.SliceByInstructions {
		return r.main.Instrs-r.current.mainStartInstrs >= uint64(r.cfg.SlicePeriodCycles)
	}
	return r.main.UserCycles-r.current.mainStartCycles >= r.cfg.SlicePeriodCycles
}

// startSegmentWith begins a new segment at the main's current state using
// cp as the start checkpoint: it forks the checker, clears dirty tracking,
// and sets up counter bookkeeping.
func (r *Runtime) startSegmentWith(cp *checkpoint) {
	seg := &Segment{
		Index:             r.segCounter,
		StartCP:           cp,
		mainStartBranches: r.main.Branches,
		mainStartInstrs:   r.main.ReadInstrCounter(),
		mainStartCycles:   r.main.UserCycles,
		mainStartNs:       r.mainTask.Clock,
	}
	r.segCounter++
	cp.refs++ // the segment holds a start reference

	// Fork the checker replicas (same point, fresh PMU). Each fork cost is
	// on the critical path, like the checkpoint's (§5.2.1). Replica 0 keeps
	// the paper's "checker%d" identity; extra NMR replicas are suffixed.
	for i := 0; i < r.cfg.checkerCount(); i++ {
		name := fmt.Sprintf("checker%d", seg.Index)
		if i > 0 {
			name = fmt.Sprintf("checker%d.%d", seg.Index, i)
		}
		r.chargeSysMain(machine.ActFork, forkBaseNs+float64(r.main.AS.PageCount())*forkPerPageNs)
		rep := r.newReplica(seg, i, r.e.L.Fork(r.main, name))
		rep.Checker.AS.ClearSoftDirty()
		rep.forkNs = r.mainTask.Clock
		r.applyDiversity(rep)
		r.attachSampler(rep.Checker, fmt.Sprintf("replica-%d", i))
		seg.Replicas = append(seg.Replicas, rep)
	}

	// Dirty-tracking epoch: clear the main's soft-dirty bits *after* the
	// previous segment's end checkpoint inherited them.
	if r.cfg.Tracking == TrackSoftDirty {
		r.chargeRuntimeMain(machine.ActDirtyPages, float64(r.main.AS.PageCount())*dirtyClearPerPageNs)
		r.main.AS.ClearSoftDirty()
	}
	// Performance-counter setup for execution-point recording (§4.2.1).
	r.chargeRuntimeMain(machine.ActRecord, counterSetupNs)

	seg.pos = len(r.segments)
	r.segments = append(r.segments, seg)
	r.current = seg
	r.tm.segStarted.Inc()
	if r.cfg.Spans != nil || r.cfg.Trace != nil {
		seg.wallStart = time.Now()
	}
	r.observeLiveSegments()
	r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.SegmentStart, seg.Index, "%d pages mapped", r.main.AS.PageCount())
	for _, rep := range seg.Replicas {
		r.sched.place(rep, r.mainTask.Clock)
	}
}

// startSegment is startSegmentWith on a freshly forked checkpoint.
func (r *Runtime) startSegment() {
	r.startSegmentWith(r.forkCheckpoint(fmt.Sprintf("cp%d", r.stats.Checkpoints)))
}

// sealCurrent records the current segment's end execution point and end
// checkpoint and arms its checker for end-point replay.
func (r *Runtime) sealCurrent(cp *checkpoint) {
	cur := r.current
	cur.End = packet.ExecPoint{Branches: r.main.Branches - cur.mainStartBranches, PC: r.main.PC}
	cur.MainInstrs = r.main.ReadInstrCounter() - cur.mainStartInstrs
	cur.mainEndNs = r.mainTask.Clock
	cur.sealed = true
	cur.EndCP = cp
	cp.refs++
	r.current = nil
	r.tm.segSealed.Inc()
	r.observeLiveSegments()
	r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.SegmentSeal, cur.Index, "end at %s, %d events", cur.End, len(cur.Log.Events))
	r.onSeal(cur)
}

// takeBoundary ends the current segment at the main's present position and
// starts the next one; one checkpoint serves as both the ending segment's
// comparison reference and the new segment's start state.
func (r *Runtime) takeBoundary() {
	if r.current == nil {
		return
	}
	// Tracer stop + counter read at the boundary (§4.2.1).
	r.chargeRuntimeMain(machine.ActBarrier, boundaryStopNs)
	r.stats.Slices++

	cp := r.forkCheckpoint(fmt.Sprintf("cp%d", r.stats.Checkpoints))
	r.sealCurrent(cp)
	r.startSegmentWith(cp)
	r.sched.onBoundary()
}

// currentIndex is the live segment index for trace events (-1 when none).
func (r *Runtime) currentIndex() int {
	if r.current == nil {
		return -1
	}
	return r.current.Index
}

// sealFinal closes the last segment when the main exits. The main process
// itself is frozen (it has exited) and serves as the end checkpoint.
func (r *Runtime) sealFinal() {
	cur := r.current
	if cur == nil {
		r.sched.onMainExit()
		return
	}
	cur.End = packet.ExecPoint{Branches: r.main.Branches - cur.mainStartBranches, PC: r.main.PC}
	cur.EndIsExit = true
	cur.MainInstrs = r.main.ReadInstrCounter() - cur.mainStartInstrs
	cur.mainEndNs = r.mainTask.Clock
	cur.sealed = true
	cur.EndCP = &checkpoint{p: r.main, refs: 1000} // backed by the live main; never reaped
	r.current = nil
	r.tm.segSealed.Inc()
	r.observeLiveSegments()
	r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.SegmentSeal, cur.Index, "final: end at %s", cur.End)
	r.onSeal(cur)
	r.sched.onMainExit()
}

// onSeal arms the sealed segment's checker replicas for end-point replay
// and the timeout budget (§4.2.2), and — when packet export is configured —
// emits the segment as a portable check packet, now that its end point,
// budget, end checkpoint and event log are all final.
func (r *Runtime) onSeal(seg *Segment) {
	limit := uint64(float64(seg.MainInstrs) * r.cfg.TimeoutScale)
	if limit < 64 {
		limit = 64
	}
	for _, rep := range seg.Replicas {
		// Budgeted even when already terminal (an NMR replica that dissented
		// before the seal): replica 0's limit is what an exported packet
		// carries, and a packet without one is unrunnable.
		rep.Checker.InstrLimit = rep.checkerInstrs + limit
		if rep.terminal() {
			continue
		}
		rep.waiting = false
		rep.ensureTarget()
	}

	if r.cfg.Trace != nil {
		// The seal span opens the segment's causal chain: main run from
		// segment start to the seal, stamped with the seal's sim-clock time.
		r.cfg.Trace.Record(telemetry.StageSpan{
			TraceID:     telemetry.NewTraceID(r.main.Name, seg.Index),
			Stage:       telemetry.StageSeal,
			Actor:       "main",
			Prog:        r.main.Name,
			Segment:     seg.Index,
			StartUnixNs: seg.wallStart.UnixNano(),
			EndUnixNs:   time.Now().UnixNano(),
			SimNs:       seg.mainEndNs,
			Detail:      fmt.Sprintf("events=%d", len(seg.Log.Events)),
		})
	}
	if r.cfg.Export != nil {
		exportStart := time.Now()
		err := r.exportSegment(seg)
		if err != nil && r.exportErr == nil {
			r.exportErr = err
		}
		if r.cfg.Trace != nil {
			detail := fmt.Sprintf("pages=%d", seg.EndCP.p.AS.PageCount())
			if err != nil {
				detail = "error: " + err.Error()
			}
			r.cfg.Trace.Record(telemetry.StageSpan{
				TraceID:     telemetry.NewTraceID(r.main.Name, seg.Index),
				Stage:       telemetry.StageExport,
				Actor:       "main",
				Prog:        r.main.Name,
				Segment:     seg.Index,
				StartUnixNs: exportStart.UnixNano(),
				EndUnixNs:   time.Now().UnixNano(),
				SimNs:       seg.mainEndNs,
				Detail:      detail,
			})
		}
	}
	// Every replica may already be terminal (e.g. all dissented while the
	// segment was still open); the vote needed the end checkpoint.
	r.maybeVote(seg)
}

// --- main-side event recording ---------------------------------------------

func (r *Runtime) recordSyscall() error {
	p := r.main
	info := oskernel.Decode(p)
	model := oskernel.ModelOf(info.Nr)
	if model == nil {
		return fmt.Errorf("core: unsupported syscall %d", info.Nr)
	}

	// Two ptrace stops (entry and exit) plus input capture.
	r.chargeRuntimeMain(machine.ActRecord, 2*r.cfg.tracerStopNs())
	r.stats.SyscallsTraced++
	r.tm.syscalls.Inc()
	r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.Syscall, r.currentIndex(), "%v", info.Nr)

	// File-backed private mmap: split the segment around the call so the
	// mapping is duplicated into the next segment's checker via fork
	// rather than replayed against a dead fd (§4.3.2).
	if info.Nr == oskernel.SysMmap && info.Args[3]&oskernel.MapAnonymous == 0 {
		return r.recordFileMmap(info)
	}

	// Containment barrier (§3.4 future work, implemented): seal the
	// current segment right before the escape and drain every outstanding
	// verification, so only checked state leaves the sphere of
	// replication.
	if r.cfg.ContainSyscalls && model.Class == oskernel.ClassGlobal {
		if r.current != nil && r.main.Branches > r.current.mainStartBranches {
			r.takeBoundary()
			r.stats.ContainBarriers++
			r.tm.barriers.Inc()
			r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.Barrier, r.currentIndex(), "before %v", info.Nr)
		}
		if r.uncomparedOthers() > 0 {
			// Wait: the main stays stopped at this syscall; pickActor
			// excludes it until the drain completes, and the next
			// dispatch re-enters recordSyscall with a clear barrier.
			r.containWait = true
			return nil
		}
		r.containWait = false
	}

	rec := &packet.SyscallEvent{Info: info, Class: model.Class}
	rec.In = captureRegions(p, model.In(r.e.K, p, info.Args))
	for _, reg := range rec.In {
		r.chargeRuntimeMain(machine.ActRecord, float64(len(reg.Data))*recordByteNs)
	}

	// Eagerly pass the syscall to the OS (§3.4): effects escape before the
	// checker confirms them; all errors are still detected within the
	// segment bound. Kernel time spent serving the guest's own syscall is
	// guest work, not runtime machinery.
	prev := r.mainTask.Core.SetActivity(machine.ActGuestMain)
	res := r.e.ExecSyscall(r.mainTask, info)
	r.mainTask.Core.SetActivity(prev)
	rec.Ret = res.Ret

	// Capture outputs for replay.
	rec.Out = captureRegions(p, model.Out(r.e.K, p, info.Args, res.Ret))
	for _, reg := range rec.Out {
		r.chargeRuntimeMain(machine.ActRecord, float64(len(reg.Data))*recordByteNs)
	}

	// ASLR pinning: remember where the kernel put an address-less mmap so
	// the checker's replayed call is pinned there (§4.3.2).
	if info.Nr == oskernel.SysMmap && res.Ret > 0 {
		rec.MmapFixedAddr = uint64(res.Ret)
	}

	if r.current != nil {
		r.current.Log.Append(packet.Event{Kind: packet.EvSyscall, Syscall: rec})
		r.wakeChecker(r.current)
	}

	if res.Exited {
		r.sealFinal()
		return nil
	}
	oskernel.Finish(p, res.Ret)
	if res.SelfSignal != proc.SigNone {
		// kill(self): delivered after the syscall completes, so the
		// handler returns past it. Deterministic given the syscall
		// position, so the checker's own execution reproduces it.
		if !p.DeliverSignal(res.SelfSignal) {
			r.sealFinal()
		}
	}
	return nil
}

// recordFileMmap implements the §4.3.2 protocol: the current segment ends
// just before the mmap (with its own end checkpoint), the call executes
// outside any protection zone, and a new segment starts just after it so
// the mapping reaches the next checker by fork rather than by replaying
// against a file descriptor that is dead in the checker. The two extra
// checkpoints show up in counter.checkpoint_count (Appendix A.7).
func (r *Runtime) recordFileMmap(info oskernel.Info) error {
	if r.current != nil {
		r.sealCurrent(r.forkCheckpoint(fmt.Sprintf("cp%d", r.stats.Checkpoints)))
	}

	prev := r.mainTask.Core.SetActivity(machine.ActGuestMain)
	res := r.e.ExecSyscall(r.mainTask, info)
	r.mainTask.Core.SetActivity(prev)
	if res.Exited {
		// mmap cannot exit the process, but stay defensive.
		r.finishWithoutSegment()
		return nil
	}
	oskernel.Finish(r.main, res.Ret)

	r.startSegment()
	r.sched.onBoundary()
	return nil
}

// finishWithoutSegment handles the main exiting while no segment is open
// (only reachable from the file-mmap window).
func (r *Runtime) finishWithoutSegment() {
	r.sched.onMainExit()
}

func (r *Runtime) recordNondet() {
	p := r.main
	r.chargeRuntimeMain(machine.ActRecord, r.cfg.tracerStopNs())
	r.stats.NondetTraced++
	r.tm.nondet.Inc()
	r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.Nondet, r.currentIndex(), "pc %d", p.PC)
	val := sim.EmulateNondet(p, r.mainCore, r.mainTask.Clock)
	rec := &packet.NondetEvent{PC: p.PC, Value: val}
	sim.FinishNondet(p, val)
	if r.current != nil {
		r.current.Log.Append(packet.Event{Kind: packet.EvNondet, Nondet: rec})
		r.wakeChecker(r.current)
	}
}

func (r *Runtime) recordInternalSignal(sig proc.Signal) {
	p := r.main
	r.chargeRuntimeMain(machine.ActRecord, r.cfg.tracerStopNs())
	r.stats.SignalsTraced++
	r.tm.signals.Inc()
	r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.Signal, r.currentIndex(), "internal %v at pc %d", sig, p.PC)
	rec := &packet.SignalEvent{Sig: sig, PC: p.PC}
	alive := p.DeliverSignal(sig)
	rec.Fatal = !alive
	if r.current != nil {
		r.current.Log.Append(packet.Event{Kind: packet.EvSignalInternal, Signal: rec})
		r.wakeChecker(r.current)
	}
	if !alive {
		r.sealFinal()
	}
}

// InjectExternalSignal delivers an asynchronous signal (e.g. SIGINT from a
// terminal) to the protected application. Parallaft records the main's
// execution point at delivery and steers every checker to the same point
// before delivering (§4.3.3). It must be called between dispatches.
func (r *Runtime) InjectExternalSignal(sig proc.Signal) {
	if r.main == nil || r.main.Exited || r.current == nil {
		return
	}
	r.chargeRuntimeMain(machine.ActRecord, r.cfg.tracerStopNs())
	r.stats.SignalsTraced++
	r.tm.signals.Inc()
	point := packet.ExecPoint{Branches: r.main.Branches - r.current.mainStartBranches, PC: r.main.PC}
	rec := &packet.SignalEvent{Sig: sig, PC: r.main.PC, Point: point}
	alive := r.main.DeliverSignal(sig)
	rec.Fatal = !alive
	r.current.Log.Append(packet.Event{Kind: packet.EvSignalExternal, Signal: rec})
	r.wakeChecker(r.current)
	if !alive {
		r.sealFinal()
	}
}

// wakeChecker clears the segment replicas' wait-for-events state.
func (r *Runtime) wakeChecker(seg *Segment) {
	for _, rep := range seg.Replicas {
		if rep.waiting {
			rep.waiting = false
			// The checker idled while the main recorded; move its clock
			// forward so it does not replay "in the past".
			if rep.Task != nil && rep.Task.Clock < r.mainTask.Clock {
				rep.Task.Clock = r.mainTask.Clock
			}
		}
	}
}

// samplePSS accumulates proportional-set-size samples of main plus running
// checkers (checkpoints excluded, §5.4) every sim.PSSSampleIntervalNs, the
// period the baseline samples at.
func (r *Runtime) samplePSS() {
	if r.mainTask.Clock < r.nextSampleNs {
		return
	}
	r.nextSampleNs = r.mainTask.Clock + sim.PSSSampleIntervalNs
	pss := r.main.AS.PSSBytes()
	for _, seg := range r.segments {
		if seg.compared {
			continue
		}
		for _, rep := range seg.Replicas {
			if rep.Checker != nil && !rep.Checker.Exited {
				pss += rep.Checker.AS.PSSBytes()
			}
		}
	}
	r.stats.pssAccum += pss
	r.stats.pssSamples++
}
