package core

import (
	"slices"

	"parallaft/internal/asm"
	"parallaft/internal/compare"
	"parallaft/internal/mem"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

// ForkError refuses to fork a run feeding a per-run accumulator
// (Config.Observer), to which a fork would add the prefix it shares with
// its source a second time. Trace, Spans and Metrics are shared sinks: a
// fork writes to them from its fork point on.
type ForkError struct{ Observer string }

func (e *ForkError) Error() string {
	return "core: a run with Config." + e.Observer + " cannot be forked: it accumulates one run's observations"
}

func (c *Config) forkable() error {
	switch {
	case c.Profiler != nil:
		return &ForkError{"Profiler"}
	case c.Windows != nil:
		return &ForkError{"Windows"}
	case c.Export != nil:
		return &ForkError{"Export"}
	}
	return nil
}

// RunForking is Run for a fault-injection campaign. At the actor boundary
// before every dispatch of a segment's replica 0 it calls dispatch with the
// elapsed time Config.ReplicaHook is about to be handed; dispatch may Fork
// the run there, or stop it by returning false (RunForking then returns nil,
// nil). It hands retired each row RunStats.Segments gains. A configuration
// that cannot be forked is refused with a *ForkError before the run starts.
func (r *Runtime) RunForking(prog *asm.Program, dispatch func(segment int, elapsedNs float64) bool, retired func(SegmentStat)) (*RunStats, error) {
	if err := r.cfg.forkable(); err != nil {
		return nil, err
	}
	r.dispatch, r.retired = dispatch, retired
	defer func() { r.dispatch, r.retired = nil, nil }()
	return r.Run(prog)
}

// Focus narrows the run to a live segment: Resume steps every actor until
// the segment is sealed, then only its replicas (the rest only while none of
// them can run), and ends once it is decided. For its verdict this is exact:
// a sealed segment's checkers run to instruction budgets that nothing else
// in the run can change. The run's other statistics stop where it did.
func (r *Runtime) Focus(segment int) {
	for _, s := range r.segments {
		if s.Index == segment && !s.compared {
			r.focus = s
			return
		}
	}
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

// worldCopy maps each object of a run to its one copy, so that what objects
// share in the source (a checkpoint two segments hold, a frame the main and
// a checkpoint map) they share in the copy.
type worldCopy struct {
	r     *Runtime // the copy
	mem   *mem.Cloner
	task  func(*sim.Task) *sim.Task
	procs map[*proc.Process]*proc.Process
	cps   map[*checkpoint]*checkpoint
	segs  map[*Segment]*Segment
	reps  map[*replica]*replica
}

// Fork returns a run of its own continuing from the actor boundary r stands
// at (inside RunForking's dispatch, or before Resume), with hook as its
// Config.ReplicaHook; resumed, it ends with the statistics r would have.
// Back-pointers and closures are rebuilt, host scratch (the voter's
// comparators, the cost tables) starts empty, and every slice a run appends
// to gets a backing array of its own. Forking only reads r, so the fork may
// run on another goroutine while r continues. DESIGN.md ("Forks") lists
// what is copied, shared and rebuilt.
func (r *Runtime) Fork(hook func(segment, replica int, checker *proc.Process, elapsedNs float64)) *Runtime {
	c := new(Runtime)
	*c = *r
	c.cfg.ReplicaHook = hook
	c.dispatch, c.retired = nil, nil
	w := &worldCopy{r: c, mem: mem.NewCloner(),
		procs: make(map[*proc.Process]*proc.Process), cps: make(map[*checkpoint]*checkpoint),
		segs: make(map[*Segment]*Segment), reps: make(map[*replica]*replica)}
	c.e, w.task = r.e.Clone(w.proc)
	c.main, c.mainTask = w.proc(r.main), w.task(r.mainTask)
	c.mainCore = c.e.M.Cores[r.mainCore.ID]
	c.segments = make([]*Segment, len(r.segments))
	for i, s := range r.segments {
		c.segments[i] = w.seg(s)
	}
	c.current, c.focus = w.seg(r.current), w.seg(r.focus)
	c.sched = r.sched.clone(w)
	c.stats.Segments = slices.Clone(r.stats.Segments)
	c.voter = compare.Voter{}
	c.voteReq = c.newVoteRequest()
	c.voting = nil
	return c
}

func (w *worldCopy) proc(p *proc.Process) *proc.Process {
	if p == nil {
		return nil
	}
	c := w.procs[p]
	if c == nil {
		c = p.Clone(w.mem.Clone(p.AS))
		w.procs[p] = c
	}
	return c
}

func (w *worldCopy) cp(cp *checkpoint) *checkpoint {
	if cp == nil {
		return nil
	}
	c := w.cps[cp]
	if c == nil {
		c = &checkpoint{p: w.proc(cp.p), refs: cp.refs}
		w.cps[cp] = c
	}
	return c
}

func (w *worldCopy) seg(s *Segment) *Segment {
	if s == nil {
		return nil
	}
	c := w.segs[s]
	if c == nil {
		c = new(Segment)
		*c = *s
		w.segs[s] = c
		c.StartCP, c.EndCP = w.cp(s.StartCP), w.cp(s.EndCP)
		c.Log.Events = slices.Clone(s.Log.Events)
		c.Replicas = make([]*replica, len(s.Replicas))
		for i, rep := range s.Replicas {
			c.Replicas[i] = w.rep(rep)
		}
	}
	return c
}

func (w *worldCopy) rep(rep *replica) *replica {
	c := w.reps[rep]
	if c == nil {
		c = new(replica)
		*c = *rep
		w.reps[rep] = c
		c.host = replicaHost{w.r, c}
		c.cfg, c.e = &w.r.cfg, w.r.e
		c.seg = w.seg(rep.seg)
		c.Checker, c.Task = w.proc(rep.Checker), w.task(rep.Task)
	}
	return c
}

// clone copies the scheduler into w's run: occupancy, queue and the DVFS
// controller's EWMAs.
func (s *scheduler) clone(w *worldCopy) *scheduler {
	c := *s
	c.r = w.r
	cores := w.r.e.M.Cores
	c.littles, c.bigs = nil, nil
	for _, lc := range s.littles {
		c.littles = append(c.littles, cores[lc.ID])
	}
	for _, bc := range s.bigs {
		c.bigs = append(c.bigs, cores[bc.ID])
	}
	c.occ = make(map[int]*replica, len(s.occ))
	for id, rep := range s.occ {
		c.occ[id] = w.rep(rep)
	}
	c.queue = make([]*replica, len(s.queue))
	for i, rep := range s.queue {
		c.queue[i] = w.rep(rep)
	}
	return &c
}
