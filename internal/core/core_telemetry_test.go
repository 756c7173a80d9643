package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"parallaft/internal/proc"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
)

// findMetric pulls one metric out of a snapshot by name.
func findMetric(t *testing.T, snap []telemetry.MetricSnapshot, name string) telemetry.MetricSnapshot {
	t.Helper()
	for _, m := range snap {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("metric %q not in snapshot", name)
	return telemetry.MetricSnapshot{}
}

// TestTelemetryCleanRun runs a clean multi-segment program with metrics and
// spans enabled and checks the instruments agree with the run's stats.
func TestTelemetryCleanRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanRecorder(0)
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	cfg.Metrics = reg
	cfg.Spans = spans

	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(testProgram(40_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}

	snap := reg.Snapshot()
	val := func(name string) float64 { return findMetric(t, snap, name).Value }

	if got := val("paft_core_syscalls_traced_total"); got != float64(stats.SyscallsTraced) {
		t.Errorf("syscall counter = %v, stats = %d", got, stats.SyscallsTraced)
	}
	if got := val("paft_core_nondet_traced_total"); got != float64(stats.NondetTraced) {
		t.Errorf("nondet counter = %v, stats = %d", got, stats.NondetTraced)
	}
	retired := val("paft_core_segments_retired_total")
	if retired != float64(len(stats.Segments)) {
		t.Errorf("retired counter = %v, segment stats = %d", retired, len(stats.Segments))
	}
	if started := val("paft_core_segments_started_total"); started < retired {
		t.Errorf("started %v < retired %v", started, retired)
	}
	// Everything is verified by the end of the run: the frontier gauges
	// must read zero.
	if got := val("paft_core_live_segments"); got != 0 {
		t.Errorf("live segments at end = %v, want 0", got)
	}
	if got := val("paft_core_checker_slack_simns"); got != 0 {
		t.Errorf("checker slack at end = %v, want 0", got)
	}
	hb := findMetric(t, snap, "paft_core_compare_hash_bytes")
	if hb.Count == 0 || hb.Sum != float64(stats.BytesHashed) {
		t.Errorf("hash-bytes histogram count=%d sum=%v, stats bytes=%d",
			hb.Count, hb.Sum, stats.BytesHashed)
	}
	dp := findMetric(t, snap, "paft_core_compare_dirty_pages")
	if dp.Sum != float64(stats.DirtyPagesHashed) {
		t.Errorf("dirty-pages histogram sum=%v, stats=%d", dp.Sum, stats.DirtyPagesHashed)
	}

	// One span per retired segment, all retired, with ordered lifecycle
	// timestamps.
	got := spans.Spans()
	if len(got) != len(stats.Segments) {
		t.Fatalf("spans = %d, segment stats = %d", len(got), len(stats.Segments))
	}
	for _, sp := range got {
		if sp.Outcome != telemetry.OutcomeRetired {
			t.Errorf("segment %d outcome = %q, want retired", sp.Segment, sp.Outcome)
		}
		if sp.EndNs < sp.ForkNs {
			t.Errorf("segment %d span ends (%v) before it forks (%v)", sp.Segment, sp.EndNs, sp.ForkNs)
		}
		if sp.WallNs <= 0 {
			t.Errorf("segment %d has no wall-clock duration", sp.Segment)
		}
	}
}

// TestTelemetryIsObservationOnly is the determinism guarantee: a run with
// the full telemetry stack enabled — including the sampling profiler and
// the window sampler — must produce byte-identical stats to a run without
// it. Telemetry consumes no simulated time.
func TestTelemetryIsObservationOnly(t *testing.T) {
	run := func(withTelemetry bool) *RunStats {
		cfg := DefaultConfig()
		cfg.SlicePeriodCycles = 40_000
		if withTelemetry {
			reg := telemetry.NewRegistry()
			cfg.Metrics = reg
			cfg.Spans = telemetry.NewSpanRecorder(0)
			cfg.Trace = telemetry.NewRecorder(0)
			cfg.Trace.SetDir(t.TempDir())
			cfg.Profiler = profile.NewRecorder(10_000)
			cfg.Windows = profile.NewWindowSampler(reg, 1e5, 0)
		}
		e := newTestEngine(7)
		rt := NewRuntime(e, cfg)
		stats, err := rt.Run(testProgram(40_000))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return stats
	}
	plain, instrumented := run(false), run(true)
	if plain.AllWallNs != instrumented.AllWallNs ||
		plain.MainWallNs != instrumented.MainWallNs ||
		plain.EnergyJ != instrumented.EnergyJ ||
		plain.Slices != instrumented.Slices ||
		!bytes.Equal(plain.Stdout, instrumented.Stdout) {
		t.Errorf("telemetry perturbed the simulation:\nplain: wall=%v main=%v energy=%v slices=%d\ninstr: wall=%v main=%v energy=%v slices=%d",
			plain.AllWallNs, plain.MainWallNs, plain.EnergyJ, plain.Slices,
			instrumented.AllWallNs, instrumented.MainWallNs, instrumented.EnergyJ, instrumented.Slices)
	}
}

// TestTelemetrySnapshotDeterministic: two identical runs yield identical
// telemetry snapshots — the property the golden snapshot test pins at the
// CLI layer.
func TestTelemetrySnapshotDeterministic(t *testing.T) {
	run := func() []byte {
		reg := telemetry.NewRegistry()
		cfg := DefaultConfig()
		cfg.SlicePeriodCycles = 40_000
		cfg.Metrics = reg
		e := newTestEngine(7)
		rt := NewRuntime(e, cfg)
		if _, err := rt.Run(testProgram(40_000)); err != nil {
			t.Fatalf("run: %v", err)
		}
		buf, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("identical runs produced different snapshots:\n%s\n---\n%s", a, b)
	}
}

// TestTelemetryRecoverySpan: an absorbed checker fault produces a span with
// the recovered outcome and bumps the recovery counters.
func TestTelemetryRecoverySpan(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanRecorder(0)
	cfg := recoveryConfig()
	cfg.Metrics = reg
	cfg.Spans = spans

	stats := runWithHook(t, cfg, loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
		}))
	if stats.Detected != nil {
		t.Fatalf("fault not absorbed: %v", stats.Detected)
	}

	snap := reg.Snapshot()
	if got := findMetric(t, snap, "paft_core_recovered_checker_faults_total").Value; got != 1 {
		t.Errorf("recovered counter = %v, want 1", got)
	}
	if got := findMetric(t, snap, "paft_core_arbitrations_total").Value; got != 1 {
		t.Errorf("arbitrations counter = %v, want 1", got)
	}
	recovered := 0
	for _, sp := range spans.Spans() {
		if sp.Outcome == telemetry.OutcomeRecovered {
			recovered++
		}
	}
	if recovered != 1 {
		t.Errorf("recovered spans = %d, want 1", recovered)
	}
}

// TestTelemetryDetectedSpan: with recovery disabled a detection still
// closes the faulty segment's span, tagged detected.
func TestTelemetryDetectedSpan(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanRecorder(0)
	cfg := smallSliceConfig()
	cfg.Metrics = reg
	cfg.Spans = spans

	stats := runWithHook(t, cfg, loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
		}))
	if stats.Detected == nil {
		t.Fatal("corruption not detected")
	}
	if got := findMetric(t, reg.Snapshot(), "paft_core_detections_total").Value; got != 1 {
		t.Errorf("detections counter = %v, want 1", got)
	}
	detected := 0
	for _, sp := range spans.Spans() {
		if sp.Outcome == telemetry.OutcomeDetected {
			detected++
		}
	}
	if detected != 1 {
		t.Errorf("detected spans = %d, want 1", detected)
	}
}

// TestTelemetryRollbackSpans: a main fault that rolls back closes every
// discarded live segment's span with the rollback outcome.
func TestTelemetryRollbackSpans(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanRecorder(0)
	cfg := recoveryConfig()
	cfg.Metrics = reg
	cfg.Spans = spans
	fired := false
	cfg.MainHook = func(m *proc.Process, nowNs float64) {
		if fired || m.Instrs < 200_000 {
			return
		}
		m.FlipRegisterBit(proc.GPRClass, 1, 0, 33)
		fired = true
	}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(120_000))
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Skip("main finished before the injection point")
	}
	if stats.Rollbacks == 0 {
		t.Fatal("main fault produced no rollback")
	}
	if got := findMetric(t, reg.Snapshot(), "paft_core_rollbacks_total").Value; got != float64(stats.Rollbacks) {
		t.Errorf("rollback counter = %v, stats = %d", got, stats.Rollbacks)
	}
	rolledBack := 0
	for _, sp := range spans.Spans() {
		if sp.Outcome == telemetry.OutcomeRollback {
			rolledBack++
		}
	}
	if rolledBack == 0 {
		t.Error("rollback discarded segments but emitted no rollback spans")
	}
}
