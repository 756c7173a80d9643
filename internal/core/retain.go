package core

import (
	"parallaft/internal/asm"
	"parallaft/internal/compare"
	"parallaft/internal/mem"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

// RunRetaining is Run for a fault-injection campaign: it hands retired each
// row RunStats.Segments gains, with retain, which copies the segment's replay
// inputs while retired runs and not after. The run waits for retired.
func (r *Runtime) RunRetaining(prog *asm.Program, retired func(stat SegmentStat, retain func() *Retained)) (*RunStats, error) {
	r.retired = retired
	defer func() { r.retired = nil }()
	return r.Run(prog)
}

// Release reaps every process a finished run still holds — the main, and
// the checkpoints and replicas of the segments still live — so that their
// frames go back to the free list instead of to the collector. The runtime
// must not be used afterwards.
func (r *Runtime) Release() {
	reaped := map[*proc.Process]bool{}
	reap := func(p *proc.Process) {
		if !reaped[p] {
			reaped[p] = true
			r.e.L.Reap(p)
		}
	}
	reap(r.main)
	for _, s := range r.segments {
		reap(s.StartCP.p)
		if s.EndCP != nil {
			reap(s.EndCP.p)
		}
		for _, rep := range s.Replicas {
			reap(rep.Checker)
		}
	}
}

// Turn is where a replica stands as one of its turns begins, when
// Config.ReplicaHook sees it: the instructions it has retired in the segment
// and its PC.
type Turn struct{ Instrs, PC uint64 }

// Retained is what a retired segment's checkers replayed, copied off its run
// through one mem.Cloner so that another goroutine may re-check the segment
// while the run goes on: the start checkpoint, the end checkpoint with the
// main's soft-dirty set, the record with its end point and the main's
// instruction count, and each replica's sealed budget, PID, PMU seed, skid
// and quantum offset. A checker's course depends on nothing else (DESIGN.md,
// "Fig. 10 trials"). One goroutine at a time may use it, until Release.
type Retained struct {
	cfg      Config  // the fields the replay and the vote read
	seg      Segment // sealed; StartCP and EndCP hold the copies
	replicas []retainedReplica
	voter    *segmentVoter
}

type retainedReplica struct {
	pid                          int
	asid                         uint64
	pmuSeed                      int64
	instrLimit, skid, quantumOff uint64
}

// retain copies seg's replay inputs. The sealed log is never appended to
// again, so the copy shares it.
func (r *Runtime) retain(seg *Segment) *Retained {
	cl := mem.NewCloner()
	cp := func(c *checkpoint) *checkpoint { return &checkpoint{p: c.p.Clone(cl.Clone(c.p.AS))} }
	s := &Retained{
		cfg: Config{TimeoutScale: r.cfg.TimeoutScale, CompareStates: r.cfg.CompareStates,
			Tracking: r.cfg.Tracking, CompareFullMemory: r.cfg.CompareFullMemory},
		seg: Segment{Index: seg.Index, StartCP: cp(seg.StartCP), EndCP: cp(seg.EndCP), Log: seg.Log,
			End: seg.End, EndIsExit: seg.EndIsExit, MainInstrs: seg.MainInstrs, sealed: true},
	}
	s.voter = newSegmentVoter(&s.cfg)
	for _, rep := range seg.Replicas {
		c := rep.Checker
		s.replicas = append(s.replicas, retainedReplica{pid: c.PID, asid: c.ASID, pmuSeed: r.e.L.PMUSeed(c.PID),
			instrLimit: c.InstrLimit, skid: rep.skid, quantumOff: rep.quantumOff})
	}
	return s
}

// Recheck replays the segment's replicas alone from the start checkpoint on
// an engine with no machine, with the run's dispatch quanta (replayAlone),
// and decides the segment with the run's vote. It returns the detection the
// segment raises, nil when it is verified. flip, when set, is applied to
// replica 0 as the first of its turns that begins where at says starts;
// landed reports whether it was.
func (s *Retained) Recheck(at Turn, flip func(*proc.Process)) (d *DetectedError, landed bool) {
	start := s.seg.StartCP.p
	k := oskernel.NewKernel(start.AS.PageSize(), 0)
	e := sim.New(nil, k, nil)
	seg := s.seg
	seg.Replicas = nil
	defer func() {
		for _, rep := range seg.Replicas {
			rep.Checker.AS.Release()
		}
	}()
	for i, rr := range s.replicas {
		c := start.Fork(rr.pid, rr.asid, start.Name, rr.pmuSeed)
		c.AS.ClearSoftDirty()
		c.InstrLimit = rr.instrLimit
		k.Register(c.PID)
		rep := &replica{idx: i}
		rep.replayEngine = replayEngine{cfg: &s.cfg, e: e, seg: &seg,
			Checker: c, Task: e.NewTask(c, nil, 0), skid: rr.skid}
		seg.Replicas = append(seg.Replicas, rep)
		q := checkerQuantum(sim.DefaultQuantum, rr.quantumOff)
		if i == 0 {
			rep.failed, landed = replayAlone(&rep.replayEngine, q, at, flip)
		} else {
			rep.failed, _ = replayAlone(&rep.replayEngine, q, Turn{}, nil)
		}
		if rep.failed != nil && len(s.replicas) == 1 {
			return rep.failed, landed
		}
	}
	if !s.cfg.CompareStates {
		return nil, landed
	}
	vres := s.voter.vote(&seg)
	if len(seg.Replicas) == 1 {
		return pairDetection(&seg, &vres), landed
	}
	switch vres.Verdict {
	case compare.VerdictUnanimous, compare.VerdictAbsorb:
		return nil, landed
	}
	// A replica quorum against the end checkpoint would repair the main
	// forward, but it cannot form here: only replica 0 is ever flipped, and
	// the clean replicas agree with the checkpoint.
	return voteDetection(&seg, &vres), landed
}

// Release drops the copies' frame references, so that bytes they held go
// back to the run they were copied from. The Retained must not be used
// afterwards.
func (s *Retained) Release() {
	s.seg.StartCP.p.AS.Release()
	s.seg.EndCP.p.AS.Release()
}
