package core

import (
	"fmt"
	"math"

	"parallaft/internal/compare"
	"parallaft/internal/proc"
)

// hashSeed seeds the page hashes; any fixed value works, it only needs to
// be identical on both sides.
const hashSeed = 0x9a7a11af7

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
		return // not on the live list
	}
	copy(r.segments[i:], r.segments[i+1:])
	r.segments[len(r.segments)-1] = nil
	r.segments = r.segments[:len(r.segments)-1]
	for j := i; j < len(r.segments); j++ {
		r.segments[j].pos = j
	}
	seg.pos = -1
}

// finish computes wall times and energy and fills the stats block. Every
// segment that can be decided already was: maybeVote runs wherever one of
// its conditions becomes true.
func (r *Runtime) finish() {
	mainWall := r.mainTask.Clock
	allWall := mainWall

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
}
