package core

import (
	"fmt"
	"math"

	"parallaft/internal/compare"
	"parallaft/internal/machine"
	"parallaft/internal/proc"
	"parallaft/internal/telemetry"
)

// hashSeed seeds the page hashes; any fixed value works, it only needs to
// be identical on both sides.
const hashSeed = 0x9a7a11af7

// compareSegment compares the checker's end state against the segment-end
// checkpoint (§4.4): registers plus the hashes of every page modified
// during the segment on either side. On mismatch the application is
// terminated with a DetectedError.
//
// The memory comparison itself — dirty-set discovery, frame-identity
// shortcuts, memoized hashing — lives in internal/compare; this side owns
// the simulated accounting: the injected hashers' time and energy are
// charged from compare's HashedBytes book, which is independent of any
// host-side shortcut the subsystem took.
func (r *Runtime) compareSegment(seg *Segment) {
	rep := seg.chk()
	var dirtyPages uint64
	defer func() {
		if r.detected != nil && r.cfg.EnableRecovery && r.detected.Segment == seg.Index {
			// Leave the segment live: recovery needs its checkpoints and
			// record for arbitration and possible rollback.
			return
		}
		seg.compared = true
		r.stats.Segments = append(r.stats.Segments, SegmentStat{
			Index:        seg.Index,
			MainNs:       seg.mainEndNs - seg.mainStartNs,
			CheckerNs:    rep.doneNs - rep.startNs,
			CheckerOnBig: rep.bigNs > 0,
			BigNs:        rep.bigNs,
			LittleNs:     rep.littleNs,
			Events:       len(seg.Log.Events),
			DirtyPages:   int(dirtyPages),
		})
		r.stats.CheckerBigNs += rep.bigNs
		r.stats.CheckerLittleNs += rep.littleNs
		r.stats.CheckerBigInstrs += rep.bigInstrs
		r.stats.CheckerLittleInstrs += rep.littleInstrs
		if rep.bigNs > 0 {
			r.stats.SegmentsOnBig++
		}
		r.retireSegment(seg)
		r.tm.segRetired.Inc()
		r.observeLiveSegments()
		outcome := telemetry.OutcomeRetired
		if r.detected != nil && r.detected.Segment == seg.Index {
			outcome = telemetry.OutcomeDetected
		}
		r.emitSpan(seg, outcome, seg.compareNs)
		r.unstallMain(seg.compareNs)
	}()

	if !r.cfg.CompareStates {
		// RAFT model (§5.1): no state comparison at segment ends.
		seg.compareNs = rep.doneNs
		if seg.compareNs > r.maxCompareNs {
			r.maxCompareNs = seg.compareNs
		}
		return
	}

	result := r.compareAgainstEndCP(seg, rep.Checker)
	dirtyPages = result.dirtyPages
	seg.dirtyPages = result.dirtyPages
	if result.err != nil {
		r.fail(seg.Index, result.err.Kind, "%s", result.err.Detail)
	}
	verdict := "ok"
	if result.err != nil {
		verdict = result.err.Kind.String()
	}
	r.cfg.Trace.Emit(rep.doneNs, telemetry.Compare, seg.Index,
		"%d dirty pages (%d identity-skipped, %d hash-cache hits), %s",
		result.dirtyPages, result.identitySkips, result.cacheHits, verdict)
	r.stats.DirtyPagesHashed += result.dirtyPages
	r.stats.BytesHashed += result.hashedBytes
	r.stats.IdentitySkips += result.identitySkips
	r.stats.HashCacheHits += result.cacheHits
	r.tm.identitySkips.Add(result.identitySkips)
	r.tm.hashCacheHits.Add(result.cacheHits)
	r.tm.hashBytes.Observe(float64(result.hashedBytes))
	r.tm.dirtyPages.Observe(float64(result.dirtyPages))
	hashedBytes := result.hashedBytes

	// The comparison can only start once both the checker has finished and
	// the end checkpoint exists (the later of the two times).
	hashNs := float64(hashedBytes) * r.cfg.HashByteNs
	start := rep.doneNs
	if seg.mainEndNs > start {
		start = seg.mainEndNs
	}
	seg.compareNs = start + hashNs
	if seg.compareNs > r.maxCompareNs {
		r.maxCompareNs = seg.compareNs
	}
	// Energy for the injected hashers, charged to the checker's last core.
	if rep.Task != nil {
		prevAct := rep.Task.Core.SetActivity(machine.ActCompare)
		rep.Task.Core.AccountActive(hashNs)
		rep.Task.Core.SetActivity(prevAct)
	}
}

// unstallMain lets a main gated on the live-segment bound (or a containment
// barrier) resume: the wall time it spent stalled elapses until the
// releasing comparison finished.
func (r *Runtime) unstallMain(untilNs float64) {
	if r.mainStalled && !r.main.Exited && !r.mainBlocked() {
		if r.mainTask.Clock < untilNs {
			r.stats.MainStallNs += untilNs - r.mainTask.Clock
			r.mainTask.Clock = untilNs
		}
		r.mainStalled = false
	}
}

// compareResult carries the outcome of one state comparison.
type compareResult struct {
	err           *DetectedError
	dirtyPages    uint64
	hashedBytes   uint64
	identitySkips uint64
	cacheHits     uint64
}

// compareRequest maps the runtime configuration onto a comparison request
// for the given reference/checker pair.
func (r *Runtime) compareRequest(seg *Segment, chk *proc.Process) compare.Request {
	req := compare.Request{
		Ref:         seg.EndCP.p.AS,
		Chk:         chk.AS,
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
	return req
}

// compareAgainstEndCP compares an arbitrary process (the segment's checker,
// or an arbitration referee during recovery) against the segment's end
// checkpoint: registers, PC, and the hashes of every page modified on
// either side (§4.4). Registers are checked first, so a register mismatch
// wins over any memory mismatch, as before the comparison subsystem split.
func (r *Runtime) compareAgainstEndCP(seg *Segment, chk *proc.Process) compareResult {
	ref := seg.EndCP.p
	// Registers (and the PC, which exec-point replay already pinned).
	res := compareResult{err: EndRegMismatch(seg.Index, chk, &ref.Regs, ref.PC)}

	cres := r.comparator.Run(r.compareRequest(seg, chk))
	res.dirtyPages = cres.DirtyPages
	res.hashedBytes = cres.HashedBytes
	res.identitySkips = cres.IdentitySkips
	res.cacheHits = cres.CacheHits
	if res.err == nil {
		res.err = EndMemMismatch(seg.Index, cres.Mismatch)
	}
	return res
}

// EndRegMismatch is the end-of-segment detection for a checker whose
// registers, or else whose PC, differ from the reference end state; nil when
// both agree. With EndMemMismatch it is the one wording of the end-state
// detections: the in-process comparison and checkd's comparison against a
// packet's wire hashes both report through the pair.
func EndRegMismatch(segment int, chk *proc.Process, refRegs *proc.Regs, refPC uint64) *DetectedError {
	switch {
	case !chk.Regs.Equal(refRegs):
		return &DetectedError{Kind: ErrRegMismatch, Segment: segment, Detail: fmt.Sprintf(
			"registers differ at segment end (checker/checkpoint):%s", chk.Regs.Diff(refRegs))}
	case chk.PC != refPC:
		return &DetectedError{Kind: ErrRegMismatch, Segment: segment, Detail: fmt.Sprintf(
			"pc %d differs from checkpoint pc %d", chk.PC, refPC)}
	}
	return nil
}

// EndMemMismatch is the end-of-segment detection for the page a memory
// comparison found differing; nil for a nil mismatch.
func EndMemMismatch(segment int, m *compare.Mismatch) *DetectedError {
	switch {
	case m == nil:
		return nil
	case m.Kind == compare.MismatchStructural:
		return &DetectedError{Kind: ErrStructuralMismatch, Segment: segment, Detail: fmt.Sprintf(
			"page %#x mapped on only one side", m.VPN)}
	default:
		return &DetectedError{Kind: ErrMemMismatch, Segment: segment, Detail: fmt.Sprintf(
			"page %#x content hash differs", m.VPN)}
	}
}

// retireSegment releases a compared segment's resources: checker process
// (including its cache footprint), checkpoint references, and its entry in
// the live list.
func (r *Runtime) retireSegment(seg *Segment) {
	r.releaseSegment(seg, true)
}

// releaseSegment is the shared retire/release path used by normal
// retirement and rollback teardown. flushASID controls whether the
// checker's cache footprint is flushed: retirement models the runtime
// cleaning up after a completed checker, while a rollback discards the
// machine state wholesale and charges no per-checker flush.
func (r *Runtime) releaseSegment(seg *Segment, flushASID bool) {
	for _, rep := range seg.Replicas {
		if rep.Task != nil {
			r.e.Retire(rep.Task)
		}
		if rep.Checker != nil && rep.Checker != r.main {
			r.e.L.Reap(rep.Checker)
			if flushASID {
				r.e.M.Caches.FlushASID(rep.Checker.ASID)
			}
		}
	}
	r.releaseCP(seg.StartCP)
	if seg.EndCP != nil {
		r.releaseCP(seg.EndCP)
	}
	r.removeSegment(seg)
}

// removeSegment unlinks seg from the live list in O(tail) without a
// search, keeping list order and every segment's position index intact.
func (r *Runtime) removeSegment(seg *Segment) {
	i := seg.pos
	if i < 0 || i >= len(r.segments) || r.segments[i] != seg {
		return // not on the live list (e.g. an arbitration shadow)
	}
	copy(r.segments[i:], r.segments[i+1:])
	r.segments[len(r.segments)-1] = nil
	r.segments = r.segments[:len(r.segments)-1]
	for j := i; j < len(r.segments); j++ {
		r.segments[j].pos = j
	}
	seg.pos = -1
}

// finish drains remaining segments, computes wall times and energy, and
// fills the stats block.
func (r *Runtime) finish() {
	mainWall := r.mainTask.Clock
	allWall := mainWall

	// Drain remaining checkers (last-checker sync, §5.2.1). On detection
	// the application is terminated instead, mirroring §4.4.
	for r.detected == nil {
		var pick *replica
		for _, s := range r.segments {
			if s.compared {
				continue
			}
			for _, rep := range s.Replicas {
				if rep.Task != nil && !rep.Checker.Exited && !rep.terminal() && !rep.waiting {
					if pick == nil || rep.Task.Clock < pick.Task.Clock {
						pick = rep
					}
				}
			}
		}
		if pick == nil {
			break
		}
		r.stepChecker(pick)
	}

	for _, s := range append([]*Segment(nil), r.segments...) {
		if r.detected != nil {
			break
		}
		if s.compared {
			continue
		}
		if len(s.Replicas) > 1 {
			r.maybeVote(s)
		} else if s.chk().phase == phaseReached {
			r.compareSegment(s)
		}
	}

	if r.maxCompareNs > allWall {
		allWall = r.maxCompareNs
	}

	r.stats.Detected = r.detected
	r.stats.AllWallNs = allWall
	r.stats.MainWallNs = mainWall
	if r.main != nil {
		r.stats.MainUserNs = r.main.UserNs
		r.stats.MainSysNs = r.main.SysNs
		r.stats.ExitCode = r.main.ExitCode
		r.stats.KilledBy = r.main.KilledBy
		r.stats.Stdout = append([]byte(nil), r.e.K.Stdout(r.main.PID)...)
		st := r.main.AS.Stats()
		r.stats.COWCopies = st.COWCopies
		r.stats.COWBytes = st.COWBytes
	}
	if r.stats.pssSamples > 0 {
		r.stats.AvgPSSBytes = r.stats.pssAccum / float64(r.stats.pssSamples)
	}
	r.stats.EnergyJ = r.e.M.EnergyJ(allWall)
	if math.IsNaN(r.stats.EnergyJ) {
		r.stats.EnergyJ = 0
	}
	r.cfg.Windows.Flush(allWall)
	r.cfg.Ledger.Finish(allWall, r.e.M)
}
