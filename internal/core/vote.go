package core

import (
	"fmt"

	"parallaft/internal/compare"
	"parallaft/internal/machine"
	"parallaft/internal/telemetry"
)

// The end of a segment is one majority vote (§4.4, generalised to NMR).
//
// The paper's design compares one checker against the segment-end
// checkpoint. With N replicas (Config.Checkers > 1) the segment end becomes
// an (N+1)-voter election — the N replicas plus the end checkpoint (the
// main's own claimed state) — and the verdict itself localises the fault:
//
//   - every voter agrees: the segment is verified (unanimous);
//   - the checkpoint keeps a majority: the dissenting replicas carried the
//     fault and are absorbed in place — a checker SEU costs one replica,
//     no re-execution, no rollback;
//   - a replica quorum agrees *against* the checkpoint: the main carried
//     the fault, and the agreed replica state is the correct segment-end
//     state — the main is repaired forward by forking it from that state,
//     no rollback;
//   - no quorum: a detection (and, when recovery is enabled,
//     arbitration/rollback).
//
// A one-replica vote is exactly the paper's pairwise comparison: agreement
// is unanimous, anything else no quorum, with the same books. So every
// segment is decided here, and the replica count is read only where the
// paper's outcome and NMR's differ: the detection's wording, the ledger
// class and trace kind of the hashing, and the vote counters.
//
// The vote is only meaningful over a state comparison, so NewRuntime
// rejects Checkers > 1 without CompareStates.

// maybeVote decides the segment once it is ready: sealed with an end
// checkpoint, and every replica terminal (reached the end point or
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
	if !r.cfg.CompareStates {
		// RAFT model (§5.1): no state comparison at segment ends.
		r.settleAt(seg, seg.checkerDoneNs())
		r.retire(seg, telemetry.OutcomeRetired)
		return
	}

	vres := r.voter.Vote(*r.voteRequest(seg))
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
	// comparison it needed. Their energy is charged to the first placed
	// replica's core. The books are simulated: independent of host-side
	// shortcuts.
	hashNs := float64(vres.HashedBytes) * hashByteNs
	r.settleAt(seg, max(seg.checkerDoneNs(), seg.mainEndNs)+hashNs)
	pairwise := len(seg.Replicas) == 1
	act := machine.ActVote
	if pairwise {
		act = machine.ActCompare
	}
	for _, rep := range seg.Replicas {
		if rep.Task != nil {
			prevAct := rep.Task.Core.SetActivity(act)
			rep.Task.Core.AccountActive(hashNs)
			rep.Task.Core.SetActivity(prevAct)
			break
		}
	}

	if pairwise {
		// The paper's comparison: a mismatch is the detection itself,
		// registers winning over memory.
		chk, ref := seg.chk().Checker, seg.EndCP.p
		err := EndRegMismatch(seg.Index, chk, &ref.Regs, ref.PC)
		if err == nil {
			err = EndMemMismatch(seg.Index, vres.RefMismatch)
		}
		verdict := "ok"
		if err != nil {
			r.detect(err)
			verdict = err.Kind.String()
		}
		r.cfg.Trace.Emit(seg.checkerDoneNs(), telemetry.Compare, seg.Index,
			"%d dirty pages (%d identity-skipped, %d hash-cache hits), %s",
			vres.DirtyPages, vres.IdentitySkips, vres.CacheHits, verdict)
		r.settle(seg)
		return
	}

	r.cfg.Trace.Emit(seg.compareNs, telemetry.Vote, seg.Index,
		"%s: %d voters, %d dissenter(s), %d dirty pages",
		vres.Verdict, len(seg.Replicas)+1, len(vres.Dissenters), vres.DirtyPages)

	switch vres.Verdict {
	case compare.VerdictUnanimous:
		r.stats.VoteUnanimous++
		r.tm.voteUnanimous.Inc()
		r.retire(seg, telemetry.OutcomeRetired)

	case compare.VerdictAbsorb:
		// The checkpoint side kept its majority: the dissenters carried the
		// fault. Absorb them in place — the segment is verified by quorum,
		// no arbitration, no rollback charged.
		r.stats.VoteAbsorbed += len(vres.Dissenters)
		r.tm.voteAbsorbed.Add(uint64(len(vres.Dissenters)))
		r.retire(seg, telemetry.OutcomeRetired)

	case compare.VerdictOutvoteRef:
		// A replica quorum agrees against the end checkpoint: the main
		// carried the fault. Repair it forward from the agreed state.
		r.stats.VoteOutvotedReplicas++
		r.tm.voteOutvoted.Inc()
		if r.forwardRepair(seg, seg.Replicas[vres.AgreedReplica]) {
			r.retire(seg, telemetry.OutcomeForwardRepaired)
			return
		}
		r.voteDetect(seg, &vres)
		r.settle(seg)

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
		r.settle(seg)
	}
}

// newVoteRequest builds the runtime's one reusable vote request: what the
// configuration fixes, plus register callbacks built once per runtime that
// read the segment voteRequest last filled in.
func (r *Runtime) newVoteRequest() compare.VoteRequest {
	req := compare.VoteRequest{
		CheckerMode: r.cfg.checkerDirtyMode(),
		Seed:        hashSeed,
	}
	switch {
	case r.cfg.CompareFullMemory:
		req.Discovery = compare.FullMemory
	case r.cfg.Tracking == TrackSoftDirty:
		req.Discovery = compare.SoftDirty
	default:
		req.Discovery = compare.FrameDiff
	}
	req.RegsAgreeRef = func(i int) bool {
		c, ref := r.voting.Replicas[i].Checker, r.voting.EndCP.p
		return c.Regs.Equal(&ref.Regs) && c.PC == ref.PC
	}
	req.RegsAgreePair = func(i, j int) bool {
		a, b := r.voting.Replicas[i].Checker, r.voting.Replicas[j].Checker
		return a.Regs.Equal(&b.Regs) && a.PC == b.PC
	}
	return req
}

// voteRequest fills the reusable request in for seg's replicas against its
// end checkpoint: a live segment's vote, or an arbitration shadow's, whose
// one replica is the referee.
func (r *Runtime) voteRequest(seg *Segment) *compare.VoteRequest {
	r.voting = seg
	req := &r.voteReq
	req.Ref = seg.EndCP.p.AS
	if req.Discovery == compare.FrameDiff {
		req.Base = seg.StartCP.p.AS
	}
	req.Replicas = req.Replicas[:0]
	for _, rep := range seg.Replicas {
		if rep.failed != nil {
			req.Replicas = append(req.Replicas, nil) // dissented during replay
			continue
		}
		req.Replicas = append(req.Replicas, rep.Checker.AS)
	}
	return req
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

// settle retires a voted segment, as detected when its verdict raised the
// run's detection. Recovery keeps a detected segment live instead: it needs
// the checkpoints and record for arbitration and possible rollback.
func (r *Runtime) settle(seg *Segment) {
	outcome := telemetry.OutcomeRetired
	if d := r.detected; d != nil && d.Segment == seg.Index {
		if r.cfg.EnableRecovery {
			return
		}
		outcome = telemetry.OutcomeDetected
	}
	r.retire(seg, outcome)
}

// settleAt stamps the time the segment's verdict is known.
func (r *Runtime) settleAt(seg *Segment, ns float64) {
	seg.compareNs = ns
	r.maxCompareNs = max(r.maxCompareNs, ns)
}

// retire retires a decided segment: its stat row and the replicas' books
// join the run's, every replica and checkpoint is released, its span
// closes, and a main stalled on the live-segment bound resumes. A segment a
// recovery referee verified (OutcomeRecovered) books only its main and
// checker spans: the work of the checker that carried the fault is not the
// segment's verification.
func (r *Runtime) retire(seg *Segment, outcome string) {
	seg.compared = true
	stat := SegmentStat{
		Index:     seg.Index,
		MainNs:    seg.mainEndNs - seg.mainStartNs,
		CheckerNs: seg.checkerDoneNs() - seg.checkerStartNs(),
	}
	if outcome != telemetry.OutcomeRecovered {
		stat.CheckerOnBig = seg.sumBigNs() > 0
		stat.BigNs = seg.sumBigNs()
		stat.LittleNs = seg.sumLittleNs()
		stat.Events = len(seg.Log.Events)
		stat.DirtyPages = int(seg.dirtyPages)
		r.stats.CheckerBigNs += stat.BigNs
		r.stats.CheckerLittleNs += stat.LittleNs
		r.stats.CheckerBigInstrs += seg.sumBigInstrs()
		r.stats.CheckerLittleInstrs += seg.sumLittleInstrs()
		if stat.CheckerOnBig {
			r.stats.SegmentsOnBig++
		}
	}
	r.stats.Segments = append(r.stats.Segments, stat)
	if r.retired != nil {
		r.retired(stat)
	}
	r.sched.drop(seg)
	r.releaseSegment(seg, true)
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
	if r.stats.ForwardRepairs+r.stats.Rollbacks >= recoveryMaxRollbacks {
		return false
	}
	// The repair happens after everything observed so far, the vote that
	// ordered it included.
	wall := max(r.restartWall(), seg.compareNs)
	r.discardFrom(seg.Index+1, wall)
	r.restartMain(agreed.Checker, "main-repaired", wall)
	r.stats.ForwardRepairs++
	r.tm.voteForwardRep.Inc()
	r.observeLiveSegments()
	r.cfg.Trace.Emit(wall, telemetry.ForwardRepair, seg.Index,
		"main repaired forward from replica %d's agreed segment-end state", agreed.idx)

	// Restart protection from the repaired state, carrying the segment's
	// retry count so a permanent fault cannot loop forever.
	r.startSegment()
	r.current.recoveries = seg.recoveries
	return true
}
