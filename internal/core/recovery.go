package core

import (
	"fmt"
	"slices"

	"parallaft/internal/compare"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
)

// Error recovery — the paper's table-2 "future work" row, implemented.
//
// When a divergence is detected, the single-fault model leaves two
// suspects: the main execution or the checker. Recovery arbitrates by
// re-executing the segment once more from its start checkpoint with a
// clean *referee* process, replaying the same record/replay log:
//
//   - if the referee reproduces the end checkpoint, the main's execution
//     was reproducible and the original checker carried the fault — the
//     segment is accepted and execution continues (no rollback);
//   - otherwise the main (or the record itself) was faulty — the runtime
//     rolls back: every live segment is discarded and the main process is
//     restored from the oldest live segment's start checkpoint, which the
//     induction argument (§3.1) has verified transitively.
//
// Without syscall containment (§3.4), globally-effectful syscalls in the
// rolled-back region have already escaped and will be issued again on
// re-execution; RunStats.ReexecutedEffects counts them so callers can
// reason about the exposure, exactly the caveat the paper describes.

// arbVerdict is the outcome of a recovery arbitration.
type arbVerdict uint8

const (
	verdictCheckerFault arbVerdict = iota
	verdictMainFault
)

// tryRecover attempts to absorb the pending detection. Returns true when
// execution can continue (the detection has been handled).
func (r *Runtime) tryRecover() bool {
	d := r.detected
	if d == nil {
		return true
	}
	var seg *Segment
	for _, s := range r.segments {
		if s.Index == d.Segment {
			seg = s
			break
		}
	}
	if seg == nil {
		return false // detection without a live segment: unrecoverable
	}
	if seg.recoveries >= recoveryMaxRetries {
		r.stats.UnrecoverableFault = true
		return false
	}
	seg.recoveries++

	// A permanent fault keeps corrupting fresh segments; the global
	// rollback budget turns that into a terminating diagnosis.
	if r.stats.Rollbacks >= recoveryMaxRollbacks {
		r.stats.UnrecoverableFault = true
		return false
	}

	verdict := verdictMainFault
	if seg.sealed && seg.EndCP != nil {
		r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.Arbitrate, seg.Index, "re-executing with a clean referee")
		verdict = r.arbitrate(seg)
	}
	r.detected = nil

	if verdict == verdictCheckerFault {
		// The checker carried the fault; the referee itself verified the
		// segment. Accept it and release its resources.
		r.stats.RecoveredCheckerFaults++
		r.tm.recoveredChecker.Inc()
		r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.Recover, seg.Index, "checker fault absorbed; segment verified by referee")
		if !seg.compared {
			if seg.checkerDoneNs() == 0 {
				seg.chk().doneNs = r.mainTask.Clock // spans report the absorb time
			}
			r.settleAt(seg, seg.checkerDoneNs())
			r.retire(seg, telemetry.OutcomeRecovered)
			r.sched.kick(r.mainTask.Clock)
		}
		return true
	}

	r.rollback()
	return true
}

// arbitrate re-executes the segment with a clean referee forked from the
// start checkpoint, replaying the recorded log alone on a big core, and
// votes it against the end checkpoint as the segment's one replica.
func (r *Runtime) arbitrate(seg *Segment) arbVerdict {
	r.stats.Arbitrations++
	r.tm.arbitrations.Inc()

	referee := r.e.L.Fork(seg.StartCP.p, fmt.Sprintf("referee%d", seg.Index))
	referee.AS.ClearSoftDirty()
	limit := uint64(float64(seg.MainInstrs) * r.cfg.TimeoutScale)
	if limit < 64 {
		limit = 64
	}
	referee.InstrLimit = limit
	r.attachSampler(referee, "referee")

	// Run on a big core at the current wall position; arbitration is rare
	// and latency matters more than energy here. Every charge is recovery
	// machinery, whatever its mechanism.
	core := r.mainCore
	if bigs := r.e.M.BigCores(); len(bigs) > 1 {
		core = bigs[1]
	}
	task := r.e.NewTask(referee, core, r.mainTask.Clock)
	defer func() {
		r.e.Retire(task)
		r.e.L.Reap(referee)
	}()
	ref := &replica{replayEngine: replayEngine{cfg: &r.cfg, e: r.e, seg: seg, Checker: referee,
		Task: task, guest: machine.ActRecovery, skid: r.cfg.SkidBuffer}}
	d, _ := replayAlone(&ref.replayEngine, checkerQuantum(sim.DefaultQuantum, 0), Turn{}, nil)
	// A referee that also diverged from the record or the end point, or
	// that loses its one-replica vote against the end checkpoint, puts the
	// fault on the main side. The vote runs over a copy of the segment
	// whose one replica is the referee.
	shadow := *seg
	shadow.Replicas = []*replica{ref}
	if d != nil || r.voter.vote(&shadow).Verdict != compare.VerdictUnanimous {
		return verdictMainFault
	}
	return verdictCheckerFault
}

// rollback discards all live segments and restores the main process from
// the oldest live segment's start checkpoint — the newest state verified by
// induction.
func (r *Runtime) rollback() {
	if len(r.segments) == 0 {
		r.stats.UnrecoverableFault = true
		return
	}
	oldest := r.segments[0]
	target := oldest.StartCP
	target.refs++ // keep it alive through the teardown below
	wall := r.restartWall()
	r.discardFrom(oldest.Index, wall)
	r.restartMain(target.p, "main-restored", wall)
	r.releaseCP(target)
	r.stats.Rollbacks++
	r.tm.rollbacks.Inc()
	r.observeLiveSegments()
	r.cfg.Trace.Emit(wall, telemetry.Rollback, oldest.Index, "main restored from segment %d's start checkpoint", oldest.Index)

	// Restart protection from the restored state, carrying the retry
	// count so a permanent fault cannot loop forever.
	r.startSegment()
	r.current.recoveries = oldest.recoveries
}

// restartWall is when a rollback or forward repair happens: after
// everything observed so far, the main's and every live replica's clock.
func (r *Runtime) restartWall() float64 {
	wall := r.mainTask.Clock
	for _, s := range r.segments {
		for _, rep := range s.Replicas {
			if rep.Task != nil {
				wall = max(wall, rep.Task.Clock)
			}
		}
	}
	return wall
}

// discardFrom tears down every live segment from index first on: they
// descend from the main state a restart abandons. Their global syscall
// effects have already escaped and will escape again on re-execution;
// ReexecutedEffects counts them (the §3.4 containment caveat). A restart
// discards the machine state wholesale, so no per-checker ASID flush is
// charged.
func (r *Runtime) discardFrom(first int, wall float64) {
	for _, s := range slices.Clone(r.segments) {
		if s.Index < first {
			continue
		}
		for _, ev := range s.Log.Events {
			if ev.Kind == packet.EvSyscall && ev.Syscall.Class == oskernel.ClassGlobal {
				r.stats.ReexecutedEffects++
			}
		}
		r.sched.drop(s)
		r.releaseSegment(s, false)
		r.emitSpan(s, telemetry.OutcomeRollback, wall)
	}
	r.current = nil
	r.mainStalled = false
}

// restartMain replaces the main with a fork of from, dispatched at wall.
// A fork starts with an empty stdout buffer — a checkpoint's, or a replica's
// that replayed rather than re-executed its writes — so the new main
// inherits what the old one actually emitted.
func (r *Runtime) restartMain(from *proc.Process, name string, wall float64) {
	r.e.Retire(r.mainTask)
	old := r.main
	r.main = r.e.L.Fork(from, name)
	r.attachSampler(r.main, "main")
	r.e.K.AppendStdout(r.main.PID, r.e.K.Stdout(old.PID))
	r.e.L.Reap(old)
	r.mainTask = r.e.NewTask(r.main, r.mainCore, wall+r.cfg.tracerStopNs())
}
