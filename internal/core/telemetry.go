package core

import (
	"fmt"
	"time"

	"parallaft/internal/telemetry"
)

// coreMetrics bundles the runtime's instrument handles, resolved once at
// NewRuntime. With Config.Metrics nil every handle is nil, and recording
// through them is a no-op — the hot paths never branch on a feature flag.
//
// Everything here is observation-only: metrics consume no simulated time,
// so enabling them cannot move a single golden byte.
type coreMetrics struct {
	segStarted  *telemetry.Counter
	segSealed   *telemetry.Counter
	segRetired  *telemetry.Counter
	checkpoints *telemetry.Counter

	syscalls *telemetry.Counter
	signals  *telemetry.Counter
	nondet   *telemetry.Counter
	barriers *telemetry.Counter

	migrations     *telemetry.Counter
	exitMigrations *telemetry.Counter
	dvfsChanges    *telemetry.Counter
	queued         *telemetry.Counter

	detections       *telemetry.Counter
	arbitrations     *telemetry.Counter
	recoveredChecker *telemetry.Counter
	rollbacks        *telemetry.Counter

	identitySkips *telemetry.Counter
	hashCacheHits *telemetry.Counter

	hashBytes  *telemetry.Histogram
	dirtyPages *telemetry.Histogram

	liveSegments *telemetry.Gauge
	checkerSlack *telemetry.Gauge

	// NMR vote instruments (registered only when checkers > 1, so the
	// telemetry snapshot of a single-checker run stays byte-identical).
	voteUnanimous  *telemetry.Counter
	voteAbsorbed   *telemetry.Counter
	voteOutvoted   *telemetry.Counter
	voteForwardRep *telemetry.Counter
	voteNoQuorum   *telemetry.Counter
	replicaSlack   []*telemetry.Gauge // per-replica slack, index-aligned
}

func newCoreMetrics(reg *telemetry.Registry, checkers int) coreMetrics {
	var m coreMetrics
	if reg == nil {
		return m
	}
	m.segStarted = reg.Counter("paft_core_segments_started_total",
		"segments begun: checkpoint and checker forked")
	m.segSealed = reg.Counter("paft_core_segments_sealed_total",
		"segments whose end point and record were finalized")
	m.segRetired = reg.Counter("paft_core_segments_retired_total",
		"segments verified and released (includes detected segments torn down at exit)")
	m.checkpoints = reg.Counter("paft_core_checkpoints_total",
		"COW checkpoint forks taken")
	m.syscalls = reg.Counter("paft_core_syscalls_traced_total",
		"main-side syscalls stopped and recorded")
	m.signals = reg.Counter("paft_core_signals_traced_total",
		"main-side signals recorded (internal and external)")
	m.nondet = reg.Counter("paft_core_nondet_traced_total",
		"nondeterministic instructions recorded")
	m.barriers = reg.Counter("paft_core_contain_barriers_total",
		"containment barriers taken before globally-effectful syscalls")
	m.migrations = reg.Counter("paft_core_migrations_total",
		"checkers migrated from little to big cores mid-run")
	m.exitMigrations = reg.Counter("paft_core_exit_migrations_total",
		"checkers migrated to big cores when the main exited")
	m.dvfsChanges = reg.Counter("paft_core_dvfs_changes_total",
		"little-core operating-point changes decided by the pacer")
	m.queued = reg.Counter("paft_core_checker_queued_total",
		"checkers that had to queue because no core was free")
	m.detections = reg.Counter("paft_core_detections_total",
		"divergences detected (before any recovery)")
	m.arbitrations = reg.Counter("paft_core_arbitrations_total",
		"recovery arbitrations: referee re-executions run")
	m.recoveredChecker = reg.Counter("paft_core_recovered_checker_faults_total",
		"checker faults absorbed in place after arbitration")
	m.rollbacks = reg.Counter("paft_core_rollbacks_total",
		"main restorations from a verified checkpoint")
	m.identitySkips = reg.Counter("paft_core_identity_skips_total",
		"pages proven equal by frame identity alone during comparison")
	m.hashCacheHits = reg.Counter("paft_core_hash_cache_hits_total",
		"page hashes served from a frame's memo during comparison")
	m.hashBytes = reg.Histogram("paft_core_compare_hash_bytes",
		"bytes hashed per end-of-segment comparison",
		telemetry.ExpBuckets(4096, 4, 12))
	m.dirtyPages = reg.Histogram("paft_core_compare_dirty_pages",
		"pages hashed per end-of-segment comparison",
		telemetry.ExpBuckets(1, 4, 10))
	m.liveSegments = reg.Gauge("paft_core_live_segments",
		"unverified segments currently outstanding")
	m.checkerSlack = reg.Gauge("paft_core_checker_slack_simns",
		"simulated ns between the main's clock and the oldest unverified segment's start")
	if checkers > 1 {
		m.voteUnanimous = reg.Counter("paft_core_vote_unanimous_total",
			"NMR votes where every replica agreed with the end checkpoint")
		m.voteAbsorbed = reg.Counter("paft_core_vote_absorbed_total",
			"dissenting replicas absorbed in place by a reference-side quorum")
		m.voteOutvoted = reg.Counter("paft_core_vote_outvoted_replicas_total",
			"NMR votes where a replica quorum outvoted the end checkpoint")
		m.voteForwardRep = reg.Counter("paft_core_vote_forward_repairs_total",
			"mains repaired by copying the agreed replica state forward")
		m.voteNoQuorum = reg.Counter("paft_core_vote_no_quorum_total",
			"NMR votes with no majority: fell back to detection and rollback")
		for i := 0; i < checkers; i++ {
			m.replicaSlack = append(m.replicaSlack, reg.Gauge(
				fmt.Sprintf("paft_core_replica%d_slack_simns", i),
				fmt.Sprintf("simulated ns replica %d of the oldest live segment trails the main", i)))
		}
	}
	return m
}

// observeLiveSegments refreshes the live-segment and checker-slack gauges.
// Called at segment start, seal, retire and rollback — the points where
// the verification frontier moves. Slack is how far verification trails
// the main: the main's clock minus the oldest unverified segment's start
// (zero when nothing is outstanding).
func (r *Runtime) observeLiveSegments() {
	if r.cfg.Metrics == nil {
		return
	}
	live := 0
	slack := 0.0
	for _, s := range r.segments {
		if !s.compared {
			live++
		}
	}
	if len(r.segments) > 0 && !r.segments[0].compared {
		slack = r.mainTask.Clock - r.segments[0].mainStartNs
		if slack < 0 {
			slack = 0
		}
	}
	r.tm.liveSegments.Set(float64(live))
	r.tm.checkerSlack.Set(slack)
	if len(r.tm.replicaSlack) > 0 && len(r.segments) > 0 && !r.segments[0].compared {
		for i, rep := range r.segments[0].Replicas {
			if i >= len(r.tm.replicaSlack) {
				break
			}
			rs := 0.0
			if rep.Task != nil {
				rs = r.mainTask.Clock - rep.Task.Clock
				if rs < 0 {
					rs = 0
				}
			}
			r.tm.replicaSlack[i].Set(rs)
		}
	}
}

// emitSpan closes a segment's lifecycle span. endNs is the simulated time
// the span closes (comparison end, recovery acceptance, or rollback).
func (r *Runtime) emitSpan(seg *Segment, outcome string, endNs float64) {
	if r.cfg.Spans == nil {
		return
	}
	sp := telemetry.Span{
		Segment:        seg.Index,
		Outcome:        outcome,
		ForkNs:         seg.mainStartNs,
		SealNs:         seg.mainEndNs,
		CheckerStartNs: seg.checkerStartNs(),
		CheckerDoneNs:  seg.checkerDoneNs(),
		CompareNs:      seg.compareNs,
		EndNs:          endNs,
		Events:         len(seg.Log.Events),
		DirtyPages:     int(seg.dirtyPages),
		OnBig:          seg.sumBigNs() > 0,
	}
	if !seg.wallStart.IsZero() {
		sp.WallNs = time.Since(seg.wallStart).Nanoseconds()
	}
	r.cfg.Spans.Record(sp)
}
