package core

import (
	"fmt"
	"time"

	"parallaft/internal/machine"
	"parallaft/internal/mem"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
)

// DirtyTracking selects the dirty-page discovery mechanism (§4.4).
type DirtyTracking uint8

// Dirty-tracking mechanisms.
const (
	// TrackFrameDiff discovers main-side modified pages by comparing frame
	// identity between consecutive checkpoints, the moral equivalent of the
	// PAGEMAP_SCAN map-count technique Parallaft uses on AArch64.
	TrackFrameDiff DirtyTracking = iota
	// TrackSoftDirty uses per-PTE soft-dirty bits, as on x86_64.
	TrackSoftDirty
)

// Config parameterises the runtime. DefaultConfig gives the paper's
// Parallaft setup; RAFTConfig gives the §5.1 RAFT model.
type Config struct {
	// SlicePeriodCycles slices the main execution each time it accumulates
	// this many user cycles (§4.1), or this many retired instructions on a
	// machine that slices by instructions (Intel, §5.8, footnote 14). Zero
	// disables periodic slicing (the RAFT model: one segment for the whole
	// program).
	SlicePeriodCycles float64

	// MaxLiveSegments bounds outstanding unverified segments; together
	// with the slice period it caps detection latency (§3.4). The main
	// process stalls when the bound is hit.
	MaxLiveSegments int

	// SkidBuffer is how many branches short of the target the checker's
	// overflow counter is armed, to absorb counter skid (§4.2.2).
	SkidBuffer uint64
	// TimeoutScale multiplies the main's (noisy) instruction count to get
	// the checker's kill budget (§4.2.2, "currently set to 1.1").
	TimeoutScale float64

	// CompareStates enables end-of-segment register and dirty-page-hash
	// comparison. Disabled in the RAFT model (§5.1 modification 3).
	CompareStates bool
	// Tracking selects the dirty-page mechanism.
	Tracking DirtyTracking
	// CompareFullMemory hashes every mapped page instead of only dirty
	// ones — the ablation that motivates dirty tracking.
	CompareFullMemory bool

	// CheckersOnBig pins checkers to big cores (RAFT model, §5.1
	// modification 2) instead of the little-core pool.
	CheckersOnBig bool
	// EnableDVFS lets the pacer scale little-core frequency (§4.5).
	EnableDVFS bool
	// EnableMigration lets the scheduler move the oldest checker to a big
	// core when little cores run out (§4.5).
	EnableMigration bool
	// MigrateNewest migrates the newest instead of the oldest checker —
	// the footnote-11 ablation.
	MigrateNewest bool

	// ReplicaHook, when set, is invoked before every dispatch of every
	// checker replica with the segment index, the replica index, the checker
	// process, and the checker's elapsed segment time. The fault injector
	// uses it to flip register bits at a chosen instant (§5.6); a
	// single-checker injector guards on replica == 0 so that under NMR the
	// injected SEU lands in one replica. Arbitration referees are exempt:
	// they are replayed alone, never dispatched as a live replica.
	ReplicaHook func(segment, replica int, checker *proc.Process, elapsedNs float64)
	// MainHook is the main-process counterpart, used to model faults in
	// the main execution for the recovery experiments.
	MainHook func(main *proc.Process, nowNs float64)

	// Checkers is the number of checker replicas forked per segment. The
	// default (0, treated as 1) is the paper's main+1-checker design and is
	// byte-identical to it. With N > 1 the run becomes N-way modular
	// redundant: the N replicas plus the segment-end checkpoint form an
	// (N+1)-voter quorum at every segment end (see vote.go) — a dissenting
	// checker is absorbed in place, and a main-side fault is repaired by
	// copying the agreed replica state forward instead of rolling back.
	// NMR requires CompareStates (the vote is a state comparison).
	Checkers int
	// Diversity names per-replica substrate presets; replica i runs under
	// Diversity[i%len(Diversity)]. Presets: "none" (default substrate),
	// "skid2x"/"skid4x" (wider counter skid buffer), "quantum" (offset
	// dispatch quantum), "bigcore" (prefer big-core placement), and
	// "coldcache" (start with a cold cache footprint). Diverse substrates
	// decorrelate replica failure modes; page-size and cache-geometry
	// diversity is available through the packet-export path (a checkd
	// daemon on a differently configured machine re-checks the same
	// segments). See ValidateDiversity.
	Diversity []string

	// EnableRecovery turns on rollback-based error recovery (the paper's
	// table-2 future work): detections are arbitrated by re-executing the
	// segment with a clean referee; checker faults are absorbed in place,
	// main faults roll the main back to the newest induction-verified
	// checkpoint. Detection remains guaranteed either way.
	EnableRecovery bool

	// Trace, when set, is the run's event recorder. It receives the
	// runtime's decisions (segments, replay events, scheduling, detections),
	// a seal stage span per sealed segment and an export span per emitted
	// packet (opening the causal chain that checkd/checkfarm stages extend),
	// and a no-quorum note — after which a no-quorum vote dumps the
	// recorder's black box into its directory. Like Spans, purely
	// observational — nil costs nothing on the hot path.
	Trace *telemetry.Recorder

	// Metrics, when set, receives runtime metrics under the paft_core_*
	// namespace (segment lifecycle counters, hash-bytes/dirty-pages
	// histograms, checker-slack and live-segment gauges, scheduling
	// decision counters). Telemetry is observation-only: it consumes no
	// simulated time and never changes a verdict or a table.
	Metrics *telemetry.Registry

	// Spans, when set, receives one lifecycle span per finished segment
	// (checkpoint fork → main run → checker replay → compare →
	// retire/rollback), with simulated-time phase stamps and a host
	// wall-time duration.
	Spans *telemetry.SpanRecorder

	// Profiler, when set, receives deterministic sim-clock profile samples
	// from every actor's interpreter dispatch loop: the runtime attaches one
	// sampler per actor (main, replica-N, referee) and reattaches after a
	// rollback or forward repair replaces the main. Observation-only — it
	// consumes no simulated time and the run's outputs are byte-identical
	// with or without it.
	Profiler *profile.Recorder

	// Windows, when set, is ticked with the main's simulated clock so the
	// registry in Metrics becomes a time series of fixed sim-clock interval
	// deltas. Observation-only.
	Windows *profile.WindowSampler

	// Export, when set, emits one portable check packet per sealed segment
	// (internal/packet): pages interned into the exporter's store, the
	// finished packet handed to its sink. Nil — the default — costs
	// nothing: the seal path never touches the export code.
	Export *packet.Exporter

	// ContainSyscalls enables error containment in the sphere of
	// replication (the paper's other table-2 future-work row): before any
	// globally-effectful syscall escapes, the current segment is sealed
	// and the main stalls until every outstanding segment has been
	// verified, so only checked state ever leaves the SoR. The paper
	// declines this because of the synchronisation cost (§3.4) — the
	// containment ablation bench quantifies exactly that cost.
	ContainSyscalls bool

	// InProcessInterception models the §5.7 future-work optimisation of
	// intercepting syscalls inside the traced process (seccomp/in-process
	// dispatch, as in rr) instead of via ptrace stops: per-event tracer
	// costs drop by roughly an order of magnitude. The stress benches
	// quantify the difference.
	InProcessInterception bool
}

// Runtime-work costs (nanoseconds). Event-driven costs (ptraceStopNs,
// recordByteNs) are kept at realistic absolute size so the §5.7
// syscall/signal stress ratios reproduce; segment-machinery costs
// (boundaryStopNs, breakpointHitNs, counterSetupNs) are scaled with the
// 1:2500 segment length so per-segment runtime work keeps the paper's small
// share (§5.2.1).
const (
	ptraceStopNs        float64 = 17000 // one ptrace-style stop round trip (syscalls, signals, nondet)
	boundaryStopNs      float64 = 500   // the tracer stop at a slicing boundary
	breakpointHitNs     float64 = 70    // one breakpoint/counter stop during end-point replay
	recordByteNs        float64 = 6.0   // capturing or checking one recorded byte
	hashByteNs          float64 = 0.002 // hashing one byte during comparison
	forkBaseNs          float64 = 900   // fixed fork cost
	forkPerPageNs       float64 = 10    // per-PTE fork cost
	dirtyClearPerPageNs float64 = 3     // clearing soft-dirty bits per page
	counterSetupNs      float64 = 120   // arming a performance counter
)

// Recovery budgets: recoveryMaxRetries bounds recovery attempts per segment,
// so a permanent fault still terminates with a diagnosis; recoveryMaxRollbacks
// bounds rollbacks and forward repairs across the whole run, since a
// permanent fault that keeps corrupting fresh segments would otherwise roll
// back forever.
const (
	recoveryMaxRetries   = 2
	recoveryMaxRollbacks = 8
)

// tracerStopNs returns the per-stop supervision cost under the active
// interception mechanism.
func (c *Config) tracerStopNs() float64 {
	if c.InProcessInterception {
		return ptraceStopNs / 12
	}
	return ptraceStopNs
}

// DefaultSlicePeriodCycles is the scaled equivalent of the paper's 5-billion
// cycle slicing period (simulation time scale 1:2500, see DESIGN.md).
const DefaultSlicePeriodCycles = 2_000_000

// DefaultConfig returns the Parallaft configuration used in the paper's
// main evaluation.
func DefaultConfig() Config {
	return Config{
		SlicePeriodCycles: DefaultSlicePeriodCycles,
		MaxLiveSegments:   12,
		SkidBuffer:        32,
		TimeoutScale:      1.1,
		CompareStates:     true,
		Tracking:          TrackFrameDiff,
		EnableDVFS:        true,
		EnableMigration:   true,
	}
}

// RAFTConfig returns the RAFT model of §5.1: no periodic checkpoints, the
// checker on a big core, and no state comparison or dirty tracking.
func RAFTConfig() Config {
	c := DefaultConfig()
	c.SlicePeriodCycles = 0
	c.CompareStates = false
	c.CheckersOnBig = true
	c.EnableDVFS = false
	c.EnableMigration = false
	c.MaxLiveSegments = 4
	return c
}

// checkpoint is a frozen COW fork of the main process. A boundary
// checkpoint serves two segments — as the comparison reference for the one
// that ends there and as the frame-diff base for the one that starts there —
// so it is released by refcount.
type checkpoint struct {
	p    *proc.Process
	refs int
}

// replica is one checker replica: its replay engine (replay.go) plus the
// in-process runtime's books about it. The paper's design has exactly one
// per segment; under NMR (Config.Checkers > 1) each segment carries a
// replica set and the segment verdict is decided by majority vote over the
// replicas plus the end checkpoint.
type replica struct {
	replayEngine
	idx int

	forkNs  float64 // when the checker was forked (main clock)
	startNs float64 // when the checker began executing
	doneNs  float64 // when the checker reached the end point (or failed)

	queued bool
	onBig  bool

	littleNs      float64
	bigNs         float64
	littleInstrs  uint64
	bigInstrs     uint64
	checkerInstrs uint64

	// failed marks a replica-scoped replay divergence under NMR: the
	// replica becomes a dissenting voter instead of terminating the run.
	failed *DetectedError

	// Diversity substrate (per-replica; defaults match the config). The
	// effective skid buffer is the engine's skid.
	quantumOff uint64 // dispatch-quantum offset
	preferBig  bool   // placement prefers a big core
}

// terminal reports whether the replica has nothing left to execute: it
// reached the segment end point, or it failed replay (NMR dissent).
func (rep *replica) terminal() bool { return rep.phase == phaseReached || rep.failed != nil }

// Segment is one slice of the main execution and its replay state.
type Segment struct {
	Index int

	StartCP *checkpoint
	EndCP   *checkpoint

	// Replicas is the segment's checker replica set, replica 0 first. A
	// single-checker run (the default) has exactly one entry.
	Replicas []*replica

	Log RRLog

	// Recorded end of the segment.
	End        packet.ExecPoint
	EndIsExit  bool
	MainInstrs uint64 // noisy count, for the timeout budget

	// Main-side bookkeeping.
	mainStartBranches uint64
	mainStartInstrs   uint64
	mainStartCycles   float64
	mainStartNs       float64
	mainEndNs         float64
	sealed            bool

	recoveries int     // recovery attempts consumed (EnableRecovery)
	compareNs  float64 // when the comparison (or vote) completed
	compared   bool
	voted      bool // the segment's vote has run
	pos        int  // index in Runtime.segments; -1 when not live

	// Telemetry-only bookkeeping (observation-only; never feeds the model).
	dirtyPages uint64    // pages hashed at comparison, for the span record
	wallStart  time.Time // host time at segment start (set only when Spans or Trace on)
}

// chk is the segment's first (and in the single-checker design, only)
// replica.
func (s *Segment) chk() *replica { return s.Replicas[0] }

// checkerStartNs is the earliest time any replica began executing (zero if
// none has).
func (s *Segment) checkerStartNs() float64 {
	start := 0.0
	for _, rep := range s.Replicas {
		if rep.startNs != 0 && (start == 0 || rep.startNs < start) {
			start = rep.startNs
		}
	}
	return start
}

// checkerDoneNs is the latest time any replica became terminal.
func (s *Segment) checkerDoneNs() float64 {
	done := 0.0
	for _, rep := range s.Replicas {
		if rep.doneNs > done {
			done = rep.doneNs
		}
	}
	return done
}

func (s *Segment) sumBigNs() float64 {
	v := 0.0
	for _, rep := range s.Replicas {
		v += rep.bigNs
	}
	return v
}

func (s *Segment) sumLittleNs() float64 {
	v := 0.0
	for _, rep := range s.Replicas {
		v += rep.littleNs
	}
	return v
}

func (s *Segment) sumBigInstrs() uint64 {
	var v uint64
	for _, rep := range s.Replicas {
		v += rep.bigInstrs
	}
	return v
}

func (s *Segment) sumLittleInstrs() uint64 {
	var v uint64
	for _, rep := range s.Replicas {
		v += rep.littleInstrs
	}
	return v
}

// SegmentStat is the per-segment summary exposed in RunStats.
type SegmentStat struct {
	Index        int
	MainNs       float64 // main-side duration of the segment
	CheckerNs    float64 // checker execution duration
	CheckerOnBig bool    // whether the checker (partly) ran on a big core
	BigNs        float64 // checker time spent on big cores
	LittleNs     float64
	Events       int
	DirtyPages   int
}

// RunStats mirrors the statistics block the Parallaft artifact dumps
// (Appendix A.7) plus the quantities the evaluation figures need.
type RunStats struct {
	Benchmark string

	AllWallNs  float64 // timing.all_wall_time
	MainWallNs float64 // timing.main_wall_time
	MainUserNs float64 // timing.main_user_time
	MainSysNs  float64 // timing.main_sys_time
	RuntimeNs  float64 // tracer/runtime work on the main's critical path

	EnergyJ float64 // hwmon.* equivalent: SoC+DRAM energy for the run

	Checkpoints int // counter.checkpoint_count
	Slices      int // fixed_interval_slicer.nr_slices

	SyscallsTraced uint64
	SignalsTraced  uint64
	NondetTraced   uint64

	ContainBarriers int // containment barriers taken (Config.ContainSyscalls)

	// SegmentsOnBig counts segments whose checker touched a big core; the
	// paper's "checkers do N% of work on big cores" corresponds to
	// SegmentsOnBig/Slices (each segment is the same amount of work).
	SegmentsOnBig int
	// MainStallNs is wall time the main spent gated on MaxLiveSegments.
	MainStallNs float64

	COWCopies uint64
	COWBytes  uint64

	DirtyPagesHashed uint64
	BytesHashed      uint64
	// Host-side comparison shortcuts (internal/compare): pages proven
	// equal by frame identity alone, and hashes served from a frame's
	// memo. Diagnostics only — excluded from the simulated cost model.
	IdentitySkips uint64
	HashCacheHits uint64

	CheckerLittleNs float64
	CheckerBigNs    float64
	// Instruction-weighted work split: the paper's "checkers do N% of
	// work on big cores" (§5.2.1, §5.3) is CheckerBigInstrs over the total.
	CheckerLittleInstrs uint64
	CheckerBigInstrs    uint64

	AvgPSSBytes float64
	pssSamples  int
	pssAccum    float64

	Segments []SegmentStat

	// Recovery accounting (Config.EnableRecovery).
	RecoveredCheckerFaults int  // checker faults absorbed without rollback
	Rollbacks              int  // main restorations from a verified checkpoint
	Arbitrations           int  // referee re-executions run
	ReexecutedEffects      int  // global syscalls whose effects escaped twice
	UnrecoverableFault     bool // retry budget exhausted (permanent fault)

	// NMR vote accounting (Config.Checkers > 1).
	VoteUnanimous        int // segments where every voter agreed
	VoteAbsorbed         int // dissenting replicas absorbed by a ref-side quorum
	VoteOutvotedReplicas int // segments where a replica quorum outvoted the reference
	ForwardRepairs       int // mains repaired by forward state copy (no rollback)
	VoteNoQuorum         int // segments with no majority (fell back to detection)

	Detected *DetectedError
	ExitCode int64
	KilledBy proc.Signal
	Stdout   []byte
}

// BigWorkFraction returns the fraction of checker work (instructions) done
// on big cores (the paper quotes 41.7 %, 38.0 % and 50.0 % for mcf, milc
// and lbm).
func (s *RunStats) BigWorkFraction() float64 {
	tot := s.CheckerBigInstrs + s.CheckerLittleInstrs
	if tot == 0 {
		return 0
	}
	return float64(s.CheckerBigInstrs) / float64(tot)
}

// Runtime supervises one protected program execution.
type Runtime struct {
	cfg Config
	e   *sim.Engine

	main     *proc.Process
	mainTask *sim.Task
	mainCore *machine.Core

	segments []*Segment // live (unverified) segments, oldest first
	current  *Segment   // segment the main is currently executing
	sched    *scheduler

	stats        RunStats
	tm           coreMetrics
	voter        *segmentVoter // decides every segment end and arbitration referee
	nextSampleNs float64
	detected     *DetectedError
	segCounter   int
	maxCompareNs float64
	mainStalled  bool // main currently gated on MaxLiveSegments

	// containWait gates the main at a globally-effectful syscall until all
	// prior segments verify (Config.ContainSyscalls).
	containWait bool

	// exportErr latches the first packet-export failure (Config.Export);
	// surfaced by Run as an infrastructure error, never as a detection.
	exportErr error

	// retired, set by RunRetaining, is handed each row RunStats.Segments
	// gains.
	retired func(SegmentStat, func() *Retained)
}

// NewRuntime creates a Parallaft (or RAFT-configured) runtime over an
// engine. The main process runs on the machine's first big core.
func NewRuntime(e *sim.Engine, cfg Config) *Runtime {
	if cfg.TimeoutScale == 0 {
		cfg.TimeoutScale = 1.1
	}
	if cfg.MaxLiveSegments == 0 {
		cfg.MaxLiveSegments = 12
	}
	if cfg.Checkers > 1 && !cfg.CompareStates {
		panic("core: Checkers > 1 requires CompareStates (the NMR vote is a state comparison)")
	}
	if err := ValidateDiversity(cfg.Diversity); err != nil {
		panic("core: " + err.Error())
	}
	bigs := e.M.BigCores()
	if len(bigs) == 0 {
		panic("core: machine has no big cores")
	}
	r := &Runtime{cfg: cfg, e: e, mainCore: bigs[0]}
	r.tm = newCoreMetrics(cfg.Metrics, cfg.Checkers)
	r.voter = newSegmentVoter(&r.cfg)
	r.sched = newScheduler(r)
	if cfg.Profiler != nil {
		cfg.Profiler.SetMetrics(cfg.Metrics)
	}
	return r
}

// checkerCount is Config.Checkers with the zero default resolved.
func (c *Config) checkerCount() int {
	if c.Checkers < 1 {
		return 1
	}
	return c.Checkers
}

// DiversityPresets lists the recognised per-replica substrate presets.
var DiversityPresets = []string{"none", "skid2x", "skid4x", "quantum", "bigcore", "coldcache"}

// ValidateDiversity checks a Config.Diversity preset list, returning a
// descriptive error on the first unknown name. The CLIs use it to reject
// bad -diversity values before a run starts.
func ValidateDiversity(presets []string) error {
	for _, p := range presets {
		switch p {
		case "", "none", "skid2x", "skid4x", "quantum", "bigcore", "coldcache":
		default:
			return fmt.Errorf("unknown diversity preset %q (known: %v)", p, DiversityPresets)
		}
	}
	return nil
}

// applyDiversity configures a freshly forked replica's substrate from the
// preset assigned to its index. Replica substrates only shape *how* a
// replica re-executes (skid width, dispatch phase, placement, cache
// warmth); the replayed instruction stream and the voted end state are
// substrate-independent, which is what makes diverse replicas comparable.
func (r *Runtime) applyDiversity(rep *replica) {
	if len(r.cfg.Diversity) == 0 {
		return
	}
	switch r.cfg.Diversity[rep.idx%len(r.cfg.Diversity)] {
	case "skid2x":
		rep.skid = 2 * r.cfg.SkidBuffer
	case "skid4x":
		rep.skid = 4 * r.cfg.SkidBuffer
	case "quantum":
		rep.quantumOff = sim.DefaultQuantum / 3
	case "bigcore":
		rep.preferBig = true
	case "coldcache":
		r.e.M.Caches.FlushASID(rep.Checker.ASID)
	}
}

// Config returns the active configuration.
func (r *Runtime) Config() Config { return r.cfg }

// chargeRuntimeMain charges tracer work to the main's critical path, classed
// under act for the overhead-attribution ledger.
func (r *Runtime) chargeRuntimeMain(act machine.Activity, ns float64) {
	prev := r.mainTask.Core.SetActivity(act)
	r.e.ChargeRuntime(r.mainTask, ns)
	r.mainTask.Core.SetActivity(prev)
	r.stats.RuntimeNs += ns
}

// chargeSysMain charges classed system time (fork costs) to the main.
func (r *Runtime) chargeSysMain(act machine.Activity, ns float64) {
	prev := r.mainTask.Core.SetActivity(act)
	r.e.ChargeSys(r.mainTask, ns)
	r.mainTask.Core.SetActivity(prev)
}

// attachSampler gives p the run profiler's sampler for the named actor;
// no-op without a profiler.
func (r *Runtime) attachSampler(p *proc.Process, name string) {
	if r.cfg.Profiler == nil {
		return
	}
	p.SetSampler(r.cfg.Profiler.Actor(name), r.cfg.Profiler.PeriodCycles())
}

// detect latches d as the run's first detection.
func (r *Runtime) detect(d *DetectedError) {
	if r.detected == nil {
		r.detected = d
		r.tm.detections.Inc()
		// Checker exceptions have never been traced; -trace output is pinned.
		if d.Kind != ErrCheckerException {
			r.cfg.Trace.Emit(r.mainTask.Clock, telemetry.Detect, d.Segment, "%s: %s", d.Kind, d.Detail)
		}
	}
}

// markDissent retires a diverged NMR replica as a dissenting voter: it is
// taken off its core, its clock frozen, and the segment votes once every
// sibling is terminal.
func (r *Runtime) markDissent(rep *replica, d *DetectedError) {
	if rep.failed != nil || rep.phase == phaseReached {
		return
	}
	rep.failed = d
	if rep.Task != nil {
		rep.doneNs = rep.Task.Clock
		rep.Checker.DisarmBranchCounter()
		rep.Checker.ClearAllBreakpoints()
		r.cfg.Trace.Emit(rep.Task.Clock, telemetry.Vote, rep.seg.Index,
			"replica %d dissents: %s: %s", rep.idx, d.Kind, d.Detail)
		r.sched.observeCheckerDone(rep)
		r.sched.onCheckerDone(rep)
	}
	r.maybeVote(rep.seg)
}

// releaseCP drops one reference to a checkpoint, reaping it at zero.
func (r *Runtime) releaseCP(cp *checkpoint) {
	if cp == nil {
		return
	}
	cp.refs--
	if cp.refs <= 0 {
		r.e.L.Reap(cp.p)
		r.e.M.Caches.FlushASID(cp.p.ASID)
	}
}

// forkCheckpoint freezes the main's current state, charging the fork cost
// to the main's system time (it is on the critical path, §5.2.1). The
// returned checkpoint starts with zero references; each holding segment
// adds one.
func (r *Runtime) forkCheckpoint(name string) *checkpoint {
	cost := forkBaseNs + float64(r.main.AS.PageCount())*forkPerPageNs
	r.chargeSysMain(machine.ActFork, cost)
	p := r.e.L.Fork(r.main, name)
	r.stats.Checkpoints++
	r.tm.checkpoints.Inc()
	return &checkpoint{p: p}
}

// DirtyModeOf maps the core-level tracking selection to the mem package's
// query mode for the checker side.
func (c Config) checkerDirtyMode() mem.DirtyMode {
	if c.Tracking == TrackSoftDirty {
		return mem.DirtySoft
	}
	return mem.DirtyMapCount
}
