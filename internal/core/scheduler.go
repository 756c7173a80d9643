package core

import (
	"parallaft/internal/machine"
	"parallaft/internal/telemetry"
)

// scheduler is the checker scheduler and pacer (§4.5). It places checker
// replicas on the little-core pool, migrates the oldest checker to a big
// core when the pool is exhausted (so the newest can start, fig. 4), queues
// checkers when every core is busy, and scales the little cores' DVFS point
// so their combined throughput just keeps up with the main execution.
type scheduler struct {
	r       *Runtime
	littles []*machine.Core
	bigs    []*machine.Core // big cores available to checkers (not the main's)

	occ   map[int]*replica // core ID -> running checker replica
	queue []*replica

	// DVFS controller state: EWMAs of segment durations.
	ewmaCheckerNorm float64 // checker time per segment, normalised to fmax
	ewmaMainNs      float64
	boundaryCount   int
	lastMigration   int // boundary index of the most recent migration
}

func newScheduler(r *Runtime) *scheduler {
	s := &scheduler{r: r, occ: make(map[int]*replica), lastMigration: -100}
	for _, c := range r.e.M.LittleCores() {
		s.littles = append(s.littles, c)
	}
	for _, c := range r.e.M.BigCores() {
		if c != r.mainCore {
			s.bigs = append(s.bigs, c)
		}
	}
	return s
}

func (s *scheduler) pool() []*machine.Core {
	if s.r.cfg.CheckersOnBig {
		return s.bigs
	}
	return s.littles
}

func (s *scheduler) freeCore(cores []*machine.Core) *machine.Core {
	for _, c := range cores {
		if s.occ[c.ID] == nil {
			return c
		}
	}
	return nil
}

// place assigns a newly forked checker replica to a core, migrating or
// queueing if necessary. A "bigcore"-diversity replica tries the big pool
// first (Döbel-style resource-aware placement: the diverse replica's demand
// is pinned to the other core type).
func (s *scheduler) place(rep *replica, nowNs float64) {
	if rep.preferBig {
		if big := s.freeCore(s.bigs); big != nil {
			s.assign(rep, big, nowNs)
			return
		}
	}
	if c := s.freeCore(s.pool()); c != nil {
		s.assign(rep, c, nowNs)
		return
	}
	if len(s.pool()) == 0 {
		// A machine with no little cores degenerates to big-core placement:
		// with an empty pool there is never a migration victim, so without
		// this fallback every checker would queue forever.
		if big := s.freeCore(s.bigs); big != nil {
			s.assign(rep, big, nowNs)
			return
		}
	}
	if s.r.cfg.EnableMigration && !s.r.cfg.CheckersOnBig {
		if big := s.freeCore(s.bigs); big != nil {
			victim := s.pickMigrationVictim()
			if victim != nil {
				s.migrate(victim, big)
				s.r.tm.migrations.Inc()
				s.lastMigration = s.boundaryCount
				// Checkers are falling behind: run the pool flat out.
				s.setLittleFreqMax()
				if c := s.freeCore(s.littles); c != nil {
					s.assign(rep, c, nowNs)
					return
				}
			}
		}
	}
	rep.queued = true
	s.r.tm.queued.Inc()
	s.r.cfg.Trace.Emit(nowNs, telemetry.Queue, rep.seg.Index, "no core free")
	s.queue = append(s.queue, rep)
}

// pickMigrationVictim selects which running little-core checker to move:
// the oldest by default (§4.5), the newest under the footnote-11 ablation.
func (s *scheduler) pickMigrationVictim() *replica {
	var victim *replica
	for _, c := range s.littles {
		rep := s.occ[c.ID]
		if rep == nil {
			continue
		}
		if victim == nil ||
			(!s.r.cfg.MigrateNewest && rep.seg.Index < victim.seg.Index) ||
			(s.r.cfg.MigrateNewest && rep.seg.Index > victim.seg.Index) {
			victim = rep
		}
	}
	return victim
}

func (s *scheduler) assign(rep *replica, c *machine.Core, nowNs float64) {
	start := nowNs
	if rep.forkNs > start {
		start = rep.forkNs
	}
	rep.Task = s.r.e.NewTask(rep.Checker, c, start)
	rep.onBig = c.Kind == machine.Big
	rep.queued = false
	s.occ[c.ID] = rep
}

// migrate moves a running checker to another core (its clock is
// continuous; the destination cache is cold, so the cost emerges from the
// cache model rather than being scripted). A big core hosting a checker
// runs one DVFS point below maximum: the checker only has to keep up with
// the main, not outrun it, and the paper's energy numbers depend on not
// burning peak big-core power on verification (§4.5).
func (s *scheduler) migrate(rep *replica, to *machine.Core) {
	if rep.Task == nil {
		return
	}
	from := rep.Task.Core
	delete(s.occ, from.ID)
	rep.Task.Core = to
	rep.onBig = to.Kind == machine.Big
	to.SetFreqIndex(len(to.Ladder) - 2)
	s.occ[to.ID] = rep
	s.r.cfg.Trace.Emit(rep.Task.Clock, telemetry.Migrate, rep.seg.Index, "core %d (%s) -> core %d (%s)", from.ID, from.Kind, to.ID, to.Kind)
}

// drop removes every replica of a segment from all scheduler structures
// (rollback and forward-repair teardown).
func (s *scheduler) drop(seg *Segment) {
	for id, occ := range s.occ {
		if occ.seg == seg {
			delete(s.occ, id)
		}
	}
	kept := s.queue[:0]
	for _, q := range s.queue {
		if q.seg != seg {
			kept = append(kept, q)
		}
	}
	s.queue = kept
}

// onCheckerDone releases the replica's core and dispatches a queued checker
// onto it. Idempotent: a second call for the same replica is a no-op (its
// core has moved on).
func (s *scheduler) onCheckerDone(rep *replica) {
	if rep.Task == nil {
		return
	}
	core := rep.Task.Core
	if s.occ[core.ID] != rep {
		return
	}
	delete(s.occ, core.ID)
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.assign(next, core, rep.doneNs)
	}
}

// kick dispatches queued checkers onto any free cores (recovery paths free
// cores outside the normal completion flow).
func (s *scheduler) kick(nowNs float64) {
	for len(s.queue) > 0 {
		c := s.freeCore(s.pool())
		if c == nil {
			return
		}
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.assign(next, c, nowNs)
	}
}

// onBoundary runs the DVFS pacer (§4.5): pick the lowest little-core
// operating point whose aggregate throughput still keeps the checkers
// abreast of the main execution. Standard governors would pin the
// compute-bound checkers at maximum frequency (footnote 10); the pacer
// instead uses the known main-vs-checker segment durations.
func (s *scheduler) onBoundary() {
	r := s.r
	s.boundaryCount++
	if len(r.segments) == 0 {
		return
	}

	// Update the EWMAs from the most recently sealed segment, skipping
	// micro-segments created by file-mmap splits, which would poison the
	// duration estimate.
	const alpha = 0.4
	var latest *Segment
	for _, seg := range r.segments {
		if seg.sealed && (latest == nil || seg.Index > latest.Index) {
			latest = seg
		}
	}
	minSegNs := 0.02 * r.cfg.SlicePeriodCycles / s.refMaxGHz()
	if latest != nil && latest.mainEndNs-latest.mainStartNs > minSegNs {
		mainNs := latest.mainEndNs - latest.mainStartNs
		if s.ewmaMainNs == 0 {
			s.ewmaMainNs = mainNs
		} else {
			s.ewmaMainNs = alpha*mainNs + (1-alpha)*s.ewmaMainNs
		}
	}

	if !r.cfg.EnableDVFS || r.cfg.CheckersOnBig || len(s.littles) == 0 {
		return
	}

	// Falling behind, recently migrated, or queueing? Run flat out and
	// wait for things to settle before scaling down again (hysteresis
	// prevents the downscale-migrate oscillation).
	if len(s.queue) > 0 || s.anyOnBig() || s.boundaryCount-s.lastMigration < 8 {
		s.setLittleFreqMax()
		return
	}
	if s.ewmaCheckerNorm == 0 || s.ewmaMainNs == 0 {
		return
	}

	// Required frequency: checkerNorm * fmax / f <= headroom * nLittle * mainNs.
	const headroom = 0.8
	fmax := s.littles[0].MaxGHz()
	need := fmax * s.ewmaCheckerNorm / (headroom * float64(len(s.littles)) * s.ewmaMainNs)
	idx := len(s.littles[0].Ladder) - 1
	for i, pt := range s.littles[0].Ladder {
		if pt.GHz >= need {
			idx = i
			break
		}
	}
	s.setLittleFreqIdx(idx)
}

// observeCheckerDone feeds the pacer's checker-duration estimate; called
// when a checker replica reaches its end point.
func (s *scheduler) observeCheckerDone(rep *replica) {
	if rep.onBig || rep.Task == nil {
		return
	}
	dur := rep.doneNs - rep.startNs
	if dur <= 0 {
		return
	}
	// Normalise to the little cores' maximum frequency (compute-bound
	// approximation: time scales inversely with frequency).
	c := rep.Task.Core
	norm := dur * c.FreqGHz() / c.MaxGHz()
	const alpha = 0.4
	if s.ewmaCheckerNorm == 0 {
		s.ewmaCheckerNorm = norm
	} else {
		s.ewmaCheckerNorm = alpha*norm + (1-alpha)*s.ewmaCheckerNorm
	}
}

func (s *scheduler) anyOnBig() bool {
	for _, c := range s.bigs {
		if s.occ[c.ID] != nil {
			return true
		}
	}
	return false
}

// refMaxGHz is the reference frequency for normalising segment durations:
// the little cores' fmax, or the main core's on a machine without a little
// pool (the pacer is inert there, but the EWMA filter still needs a scale).
func (s *scheduler) refMaxGHz() float64 {
	if len(s.littles) > 0 {
		return s.littles[0].MaxGHz()
	}
	return s.r.mainCore.MaxGHz()
}

// setLittleFreqMax runs the little pool flat out; a no-op on machines
// without little cores.
func (s *scheduler) setLittleFreqMax() {
	if len(s.littles) == 0 {
		return
	}
	s.setLittleFreqIdx(len(s.littles[0].Ladder) - 1)
}

func (s *scheduler) setLittleFreqIdx(idx int) {
	if len(s.littles) > 0 && s.littles[0].FreqIndex() != idx {
		s.r.tm.dvfsChanges.Inc()
		s.r.cfg.Trace.Emit(s.r.mainTask.Clock, telemetry.DVFS, -1, "little cores -> %.1f GHz", s.littles[0].Ladder[clampIdx(idx, len(s.littles[0].Ladder))].GHz)
	}
	for _, c := range s.littles {
		c.SetFreqIndex(idx)
	}
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// onMainExit migrates still-running checkers to free big cores so the
// whole-program execution finishes quickly (§4.5), and runs the remaining
// little-core checkers flat out.
func (s *scheduler) onMainExit() {
	if !s.r.cfg.EnableMigration || s.r.cfg.CheckersOnBig {
		return
	}
	for _, lc := range s.littles {
		rep := s.occ[lc.ID]
		if rep == nil {
			continue
		}
		big := s.freeCore(s.bigs)
		if big == nil {
			break
		}
		s.migrate(rep, big)
		s.r.tm.exitMigrations.Inc()
	}
	s.setLittleFreqMax()
}
