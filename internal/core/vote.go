package core

import (
	"fmt"

	"parallaft/internal/compare"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/telemetry"
)

// NMR majority voting (Config.Checkers > 1).
//
// The paper's design compares one checker against the segment-end
// checkpoint: a mismatch says *something* diverged, and recovery has to
// arbitrate by re-executing the segment before it knows which side to
// trust. With N replicas the segment end becomes an (N+1)-voter election —
// the N replicas plus the end checkpoint (the main's own claimed state) —
// and the verdict itself localises the fault:
//
//   - every voter agrees: the segment is verified (unanimous);
//   - the checkpoint keeps a majority: the dissenting replicas carried the
//     fault and are absorbed in place — a checker SEU costs one replica,
//     no re-execution, no rollback;
//   - a replica quorum agrees *against* the checkpoint: the main carried
//     the fault, and the agreed replica state is the correct segment-end
//     state — the main is repaired forward by forking it from that state,
//     no rollback;
//   - no quorum: fall back to the pairwise detection path (and, when
//     recovery is enabled, arbitration/rollback).
//
// The vote is only meaningful over a state comparison, so NewRuntime
// rejects Checkers > 1 without CompareStates.

// maybeVote runs the segment's majority vote once it is ready: sealed with
// an end checkpoint, and every replica terminal (reached the end point or
// dissented during replay). Called from every point where one of those
// conditions can become true.
func (r *Runtime) maybeVote(seg *Segment) {
	if seg.compared || seg.voted || seg.arb || !seg.sealed || seg.EndCP == nil {
		return
	}
	for _, rep := range seg.Replicas {
		if !rep.terminal() {
			return
		}
	}
	seg.voted = true
	r.voteSegment(seg)
}

// voteSegment runs the (N+1)-voter majority decision and acts on the
// verdict. The accounting mirrors compareSegment: simulated hash time and
// energy are charged from the vote's summed HashedBytes book, independent
// of host-side shortcuts.
func (r *Runtime) voteSegment(seg *Segment) {
	ref := seg.EndCP.p
	req := compare.VoteRequest{
		Ref:         ref.AS,
		CheckerMode: r.cfg.checkerDirtyMode(),
		Seed:        hashSeed,
		Workers:     r.cfg.CompareWorkers,
	}
	switch {
	case r.cfg.CompareFullMemory:
		req.Discovery = compare.FullMemory
	case r.cfg.Tracking == TrackSoftDirty:
		req.Discovery = compare.SoftDirty
	default:
		req.Discovery = compare.FrameDiff
		req.Base = seg.StartCP.p.AS
	}
	for _, rep := range seg.Replicas {
		if rep.failed != nil {
			req.Replicas = append(req.Replicas, nil) // dissented during replay
			continue
		}
		req.Replicas = append(req.Replicas, rep.Checker.AS)
	}
	req.RegsAgreeRef = func(i int) bool {
		c := seg.Replicas[i].Checker
		return c.Regs.Equal(&ref.Regs) && c.PC == ref.PC
	}
	req.RegsAgreePair = func(i, j int) bool {
		a, b := seg.Replicas[i].Checker, seg.Replicas[j].Checker
		return a.Regs.Equal(&b.Regs) && a.PC == b.PC
	}
	vres := r.voter.Vote(req)

	seg.dirtyPages = vres.DirtyPages
	r.stats.DirtyPagesHashed += vres.DirtyPages
	r.stats.BytesHashed += vres.HashedBytes
	r.stats.IdentitySkips += vres.IdentitySkips
	r.stats.HashCacheHits += vres.CacheHits
	r.tm.identitySkips.Add(vres.IdentitySkips)
	r.tm.hashCacheHits.Add(vres.CacheHits)
	r.tm.hashBytes.Observe(float64(vres.HashedBytes))
	r.tm.dirtyPages.Observe(float64(vres.DirtyPages))

	// The vote starts once the last replica is terminal and the end
	// checkpoint exists, then the injected hashers run over every
	// comparison the quorum search needed.
	hashNs := float64(vres.HashedBytes) * r.cfg.HashByteNs
	start := seg.checkerDoneNs()
	if seg.mainEndNs > start {
		start = seg.mainEndNs
	}
	seg.compareNs = start + hashNs
	if seg.compareNs > r.maxCompareNs {
		r.maxCompareNs = seg.compareNs
	}
	// Energy for the injected hashers, charged to the first replica's core.
	for _, rep := range seg.Replicas {
		if rep.Task != nil {
			prevAct := rep.Task.Core.SetActivity(machine.ActVote)
			rep.Task.Core.AccountActive(hashNs)
			rep.Task.Core.SetActivity(prevAct)
			break
		}
	}

	r.cfg.Trace.Emit(seg.compareNs, telemetry.Vote, seg.Index,
		"%s: %d voters, %d dissenter(s), %d dirty pages",
		vres.Verdict, len(seg.Replicas)+1, len(vres.Dissenters), vres.DirtyPages)

	switch vres.Verdict {
	case compare.VerdictUnanimous:
		r.stats.VoteUnanimous++
		r.tm.voteUnanimous.Inc()
		r.retireVoted(seg, telemetry.OutcomeRetired)

	case compare.VerdictAbsorb:
		// The checkpoint side kept its majority: the dissenters carried the
		// fault. Absorb them in place — the segment is verified by quorum,
		// no arbitration, no rollback charged.
		r.stats.VoteAbsorbed += len(vres.Dissenters)
		r.tm.voteAbsorbed.Add(uint64(len(vres.Dissenters)))
		r.retireVoted(seg, telemetry.OutcomeRetired)

	case compare.VerdictOutvoteRef:
		// A replica quorum agrees against the end checkpoint: the main
		// carried the fault. Repair it forward from the agreed state.
		r.stats.VoteOutvotedReplicas++
		r.tm.voteOutvoted.Inc()
		if r.forwardRepair(seg, seg.Replicas[vres.AgreedReplica]) {
			r.retireVoted(seg, telemetry.OutcomeForwardRepaired)
			return
		}
		r.voteDetect(seg, &vres)
		r.settleVoteDetection(seg)

	case compare.VerdictNoQuorum:
		r.stats.VoteNoQuorum++
		r.tm.voteNoQuorum.Inc()
		// Black-box moment: no majority means no trustworthy state. Note it
		// and dump the flight ring so the post-mortem sees the lead-up, the
		// vote decision above included.
		r.cfg.Trace.Note("no-quorum",
			fmt.Sprintf("%s seg %d: %d replicas, no majority", r.main.Name, seg.Index, len(seg.Replicas)))
		r.cfg.Trace.DumpToDir("main", "no-quorum", r.cfg.Metrics)
		r.voteDetect(seg, &vres)
		r.settleVoteDetection(seg)
	}
}

// voteDetect raises the global detection for a vote that found no
// trustworthy state. A replica's own replay divergence is preferred — it
// names the event that went wrong, which a state diff cannot.
func (r *Runtime) voteDetect(seg *Segment, vres *compare.VoteResult) {
	for _, rep := range seg.Replicas {
		if d := rep.failed; d != nil {
			r.detect(&DetectedError{Kind: d.Kind, Segment: seg.Index, Sig: d.Sig,
				Detail: fmt.Sprintf("replica %d: %s", rep.idx, d.Detail)})
			return
		}
	}
	if m := vres.RefMismatch; m != nil {
		switch m.Kind {
		case compare.MismatchStructural:
			r.fail(seg.Index, ErrStructuralMismatch,
				"page %#x mapped on only one side (replica %d vs end checkpoint)",
				m.VPN, vres.RefMismatchReplica)
		case compare.MismatchContent:
			r.fail(seg.Index, ErrMemMismatch,
				"page %#x content hash differs (replica %d vs end checkpoint)",
				m.VPN, vres.RefMismatchReplica)
		}
		return
	}
	r.fail(seg.Index, ErrRegMismatch,
		"replica registers differ from the end checkpoint with no quorum")
}

// settleVoteDetection decides what happens to a voted segment whose verdict
// raised a detection: recovery keeps it live for arbitration and possible
// rollback (exactly like the pairwise path), otherwise it retires as
// detected and the run terminates.
func (r *Runtime) settleVoteDetection(seg *Segment) {
	if r.detected != nil && r.cfg.EnableRecovery && r.detected.Segment == seg.Index {
		return // recovery needs the checkpoints and record
	}
	r.retireVoted(seg, telemetry.OutcomeDetected)
}

// retireVoted retires a voted segment: aggregate per-replica books into the
// segment stat, release every replica and checkpoint, and let a stalled
// main resume. The single-replica analogue is compareSegment's deferred
// retire block.
func (r *Runtime) retireVoted(seg *Segment, outcome string) {
	seg.compared = true
	r.stats.Segments = append(r.stats.Segments, SegmentStat{
		Index:        seg.Index,
		MainNs:       seg.mainEndNs - seg.mainStartNs,
		CheckerNs:    seg.checkerDoneNs() - seg.checkerStartNs(),
		CheckerOnBig: seg.sumBigNs() > 0,
		BigNs:        seg.sumBigNs(),
		LittleNs:     seg.sumLittleNs(),
		Events:       len(seg.Log.Events),
		DirtyPages:   int(seg.dirtyPages),
	})
	r.stats.CheckerBigNs += seg.sumBigNs()
	r.stats.CheckerLittleNs += seg.sumLittleNs()
	r.stats.CheckerBigInstrs += seg.sumBigInstrs()
	r.stats.CheckerLittleInstrs += seg.sumLittleInstrs()
	if seg.sumBigNs() > 0 {
		r.stats.SegmentsOnBig++
	}
	r.sched.drop(seg)
	r.retireSegment(seg)
	r.tm.segRetired.Inc()
	r.observeLiveSegments()
	r.emitSpan(seg, outcome, seg.compareNs)
	r.unstallMain(seg.compareNs)
}

// forwardRepair replaces a faulty main with a fork of the agreed replica's
// segment-end state — forward recovery: instead of rolling back to the last
// verified checkpoint and re-executing, the quorum-verified state *ahead*
// of the fault is copied over the main and execution continues from there.
// The replica quorum plays the role arbitration plays in the pairwise
// design: it already proved which side is trustworthy, so no referee
// re-execution is needed and no rollback is charged.
//
// Segments newer than the repaired one descend from the faulty main state
// and are discarded; like a rollback, their already-escaped global syscall
// effects will escape again on re-execution (counted in ReexecutedEffects —
// the §3.4 containment caveat applies unchanged). Older live segments are
// unaffected: their records and checkpoints predate the fault and they keep
// verifying concurrently.
//
// Returns false — falling back to the detection path — when there is no
// main left to repair (the segment ends in program exit, so the disputed
// state is the final state) or the shared repair/rollback budget is
// exhausted (a permanent fault must terminate with a diagnosis, not loop).
func (r *Runtime) forwardRepair(seg *Segment, agreed *replica) bool {
	if seg.EndIsExit || r.main.Exited {
		return false
	}
	if r.stats.ForwardRepairs+r.stats.Rollbacks >= r.cfg.RecoveryMaxRollbacks {
		return false
	}

	// Wall time when the repair happens: everything observed so far,
	// including the vote that ordered it.
	wall := r.mainTask.Clock
	for _, s := range r.segments {
		for _, rep := range s.Replicas {
			if rep.Task != nil && rep.Task.Clock > wall {
				wall = rep.Task.Clock
			}
		}
	}
	if seg.compareNs > wall {
		wall = seg.compareNs
	}

	// Discard every segment newer than the repaired one.
	for _, s := range append([]*Segment(nil), r.segments...) {
		if s.Index <= seg.Index {
			continue
		}
		for _, ev := range s.Log.Events {
			if ev.Kind == EvSyscall && ev.Syscall.Class == oskernel.ClassGlobal {
				r.stats.ReexecutedEffects++
			}
		}
		r.sched.drop(s)
		r.releaseSegment(s, false)
		r.emitSpan(s, telemetry.OutcomeRollback, wall)
	}
	r.current = nil
	r.mainStalled = false

	// Replace the main with a fork of the agreed replica's end state. The
	// replicas replayed — never re-executed — the segment's global writes,
	// so the fork starts with an empty stdout buffer; the repaired main
	// inherits what the faulty main actually emitted.
	r.e.Retire(r.mainTask)
	oldMain := r.main
	r.main = r.e.L.Fork(agreed.Checker, "main-repaired")
	r.attachSampler(r.main, "main")
	r.e.K.AppendStdout(r.main.PID, r.e.K.Stdout(oldMain.PID))
	r.e.L.Reap(oldMain)
	r.mainTask = r.e.NewTask(r.main, r.mainCore, wall+r.cfg.tracerStopNs())
	r.stats.ForwardRepairs++
	r.tm.voteForwardRep.Inc()
	r.observeLiveSegments()
	r.cfg.Trace.Emit(wall, telemetry.ForwardRepair, seg.Index,
		"main repaired forward from replica %d's agreed segment-end state", agreed.idx)

	// Restart protection from the repaired state, carrying the segment's
	// retry count so a permanent fault cannot loop forever.
	recoveries := seg.recoveries
	r.startSegment()
	r.current.recoveries = recoveries
	return true
}
