package core

import (
	"slices"

	"parallaft/internal/asm"
	"parallaft/internal/compare"
	"parallaft/internal/mem"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

// Snapshot is a whole protected run frozen at an actor boundary: machine,
// kernel, loader, tasks, every live process and the runtime's own books.
// The simulation is deterministic, so a run restored from it ends with the
// uninterrupted run's statistics, byte for byte. It is never run itself, and
// any number of goroutines may restore it at once. DESIGN.md ("Snapshots")
// lists what is copied, shared and rebuilt.
type Snapshot struct{ r *Runtime }

// SnapshotError refuses to snapshot a run feeding a per-run accumulator
// (Config.Observer), to which a restored run would add the prefix twice.
// Trace, Spans and Metrics are shared sinks: a restored run writes to them
// from its restore point on.
type SnapshotError struct{ Observer string }

func (e *SnapshotError) Error() string {
	return "core: a run with Config." + e.Observer + " cannot be snapshotted: it accumulates one run's observations"
}

func (c *Config) snapshottable() error {
	switch {
	case c.Profiler != nil:
		return &SnapshotError{"Profiler"}
	case c.Windows != nil:
		return &SnapshotError{"Windows"}
	case c.Export != nil:
		return &SnapshotError{"Export"}
	}
	return nil
}

// RunSpine is Run for a fault-injection campaign. At the actor boundary just
// before each segment's replica 0 is first dispatched — the latest point
// every trial of that segment shares — it hands at the latest snapshot it
// holds: one taken right there, or else the latest one taken before. And it
// hands retired each row RunStats.Segments gains, which fixes the segment's
// clean checker duration. Both run on the spine's goroutine.
//
// A snapshot costs the pages the run rewrites while it is held. So past the
// first, which is always taken, the spine takes one only when the main has
// rewritten at most half its pages since the last, and while the pages it
// rewrote between snapshots add up to at most twice the pages it maps. A run
// that rewrites most of its pages every segment (429.mcf) would otherwise
// hold a run's worth of pages per segment.
//
// Config.ReplicaHook runs as in Run. A configuration that cannot be
// snapshotted is refused with a *SnapshotError before the run starts.
func (r *Runtime) RunSpine(prog *asm.Program, at func(segment int, s *Snapshot), retired func(SegmentStat)) (*RunStats, error) {
	if err := r.cfg.snapshottable(); err != nil {
		return nil, err
	}
	var last *Snapshot
	var cows, lent uint64 // the main's copy-on-write count at the last snapshot; its sum of rewrites
	r.atFirstDispatch = func(segment int) {
		now, pages := r.main.AS.Stats().COWCopies, uint64(r.main.AS.PageCount())
		rewrites := now - min(now, cows) // a restarted main counts from zero
		if last == nil || 2*rewrites <= pages && lent+rewrites <= 2*pages {
			last, cows, lent = &Snapshot{r.clone(nil)}, now, lent+rewrites
		}
		at(segment, last)
	}
	r.retired = retired
	defer func() { r.atFirstDispatch, r.retired = nil, nil }()
	return r.Run(prog)
}

// Restore returns a run of its own continuing from the snapshot, with hook
// as its Config.ReplicaHook.
func (s *Snapshot) Restore(hook func(segment, replica int, checker *proc.Process, elapsedNs float64)) *Runtime {
	return s.r.clone(hook)
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

// clone copies the run with hook as its ReplicaHook. Back-pointers and
// closures are rebuilt, host scratch (the voter's comparators, the cost
// tables) starts empty, and every slice a run appends to gets a backing
// array of its own. Cloning a snapshot only reads it.
func (r *Runtime) clone(hook func(segment, replica int, checker *proc.Process, elapsedNs float64)) *Runtime {
	c := new(Runtime)
	*c = *r
	c.cfg.ReplicaHook = hook
	c.atFirstDispatch, c.retired = nil, nil
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
	c.current = w.seg(r.current)
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
