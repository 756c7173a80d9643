package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallaft/internal/proc"
	"parallaft/internal/telemetry"
)

func nmrConfig() Config {
	cfg := smallSliceConfig()
	cfg.Checkers = 3
	return cfg
}

// TestNMRCleanRunUnanimous: a clean 3-replica run votes unanimously on
// every segment and produces the baseline result.
func TestNMRCleanRunUnanimous(t *testing.T) {
	prog := loopProgram(120_000)
	be := newTestEngine(13)
	base, err := be.RunBaseline(prog, be.M.BigCores()[0])
	if err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(13)
	rt := NewRuntime(e, nmrConfig())
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive under NMR: %v", stats.Detected)
	}
	if stats.VoteUnanimous != len(stats.Segments) {
		t.Errorf("unanimous votes = %d, segments = %d", stats.VoteUnanimous, len(stats.Segments))
	}
	if stats.VoteAbsorbed != 0 || stats.VoteNoQuorum != 0 || stats.ForwardRepairs != 0 {
		t.Errorf("clean run charged absorb=%d noquorum=%d repairs=%d",
			stats.VoteAbsorbed, stats.VoteNoQuorum, stats.ForwardRepairs)
	}
	if stats.ExitCode != base.ExitCode {
		t.Errorf("exit code %d != baseline %d", stats.ExitCode, base.ExitCode)
	}
}

// TestNMRVoteAbsorbsCheckerSEU: an SEU in one replica is outvoted by the
// reference-side quorum and absorbed in place — no arbitration referee, no
// rollback, no recovery machinery at all.
func TestNMRVoteAbsorbsCheckerSEU(t *testing.T) {
	prog := loopProgram(120_000)
	be := newTestEngine(13)
	base, err := be.RunBaseline(prog, be.M.BigCores()[0])
	if err != nil {
		t.Fatal(err)
	}

	// runWithHook fires only for replica 0: the SEU lands in exactly one
	// replica, the single-fault model.
	stats := runWithHook(t, nmrConfig(), prog,
		onceInSegment(1, func(c *proc.Process) {
			c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
		}))
	if stats.Detected != nil {
		t.Fatalf("checker SEU not absorbed by the vote: %v", stats.Detected)
	}
	if stats.VoteAbsorbed != 1 {
		t.Errorf("absorbed dissenters = %d, want 1", stats.VoteAbsorbed)
	}
	if stats.Rollbacks != 0 || stats.ForwardRepairs != 0 {
		t.Errorf("rollbacks=%d repairs=%d, want 0/0 (fault was in a replica)",
			stats.Rollbacks, stats.ForwardRepairs)
	}
	if stats.Arbitrations != 0 {
		t.Errorf("arbitrations = %d, want 0 (the quorum IS the arbitration)", stats.Arbitrations)
	}
	if stats.ExitCode != base.ExitCode {
		t.Errorf("exit code %d != baseline %d", stats.ExitCode, base.ExitCode)
	}
}

// TestNMRVoteAbsorbsReplicaException: a replica fault that manifests as a
// replay divergence (wild pointer, SIGSEGV) makes that replica a dissenting
// voter; the vote still absorbs it in place.
func TestNMRVoteAbsorbsReplicaException(t *testing.T) {
	cfg := nmrConfig()
	fired := false
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
		if fired || seg != 1 || rep != 1 {
			return
		}
		c.Regs.X[4] = 0xdead_0000 // wild pointer -> replica SIGSEGV
		fired = true
	}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(120_000))
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Skip("replica 1 never dispatched in segment 1")
	}
	if stats.Detected != nil {
		t.Fatalf("replica exception not absorbed: %v", stats.Detected)
	}
	if stats.VoteAbsorbed != 1 {
		t.Errorf("absorbed dissenters = %d, want 1", stats.VoteAbsorbed)
	}
}

// TestNMRForwardRepairsMainFault: a transient fault in the *main* is
// localised by the replica quorum (all replicas agree against the end
// checkpoint) and repaired forward: the agreed replica state is copied over
// the main, no rollback, and the program completes with the correct result.
func TestNMRForwardRepairsMainFault(t *testing.T) {
	prog := loopProgram(120_000)
	be := newTestEngine(13)
	base, err := be.RunBaseline(prog, be.M.BigCores()[0])
	if err != nil {
		t.Fatal(err)
	}

	cfg := nmrConfig()
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
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Skip("main finished before the injection point")
	}
	if stats.Detected != nil {
		t.Fatalf("main fault not repaired: %v", stats.Detected)
	}
	if stats.ForwardRepairs == 0 {
		t.Error("main fault produced no forward repair")
	}
	if stats.VoteOutvotedReplicas == 0 {
		t.Error("no vote outvoted the reference")
	}
	if stats.Rollbacks != 0 {
		t.Errorf("rollbacks = %d, want 0 (forward recovery replaces rollback)", stats.Rollbacks)
	}
	if stats.ExitCode != base.ExitCode {
		t.Errorf("exit code %d != baseline %d after forward repair (the whole point)",
			stats.ExitCode, base.ExitCode)
	}
	if !bytes.Equal(stats.Stdout, base.Stdout) {
		t.Errorf("output differs after forward repair")
	}
}

// TestNMRNoQuorumFallsBackToDetection: two replicas corrupted differently
// leave no 3-of-4 majority; the vote falls back to the detection path and,
// with recovery off, the run terminates with a diagnosis.
func TestNMRNoQuorumFallsBackToDetection(t *testing.T) {
	cfg := nmrConfig()
	fired := [3]bool{}
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
		if seg != 1 || rep == 2 || fired[rep] {
			return
		}
		// Different bit per replica: the dissenters do not agree pairwise.
		c.FlipRegisterBit(proc.GPRClass, 1, 0, uint(40+rep))
		fired[rep] = true
	}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(120_000))
	if err != nil {
		t.Fatal(err)
	}
	if !fired[0] || !fired[1] {
		t.Skip("both replicas were not corrupted in segment 1")
	}
	if stats.Detected == nil {
		t.Fatal("double replica corruption produced no detection")
	}
	if stats.VoteNoQuorum != 1 {
		t.Errorf("no-quorum votes = %d, want 1", stats.VoteNoQuorum)
	}
}

// TestNMRNoQuorumDumpsBlackBox: a no-quorum vote is a black-box moment. The
// run dumps exactly once, and the dump holds the lead-up the post-mortem
// needs: the segment's vote decision and its seal span, which the runtime
// records into the same stream.
func TestNMRNoQuorumDumpsBlackBox(t *testing.T) {
	cfg := nmrConfig()
	fired := [3]bool{}
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
		if seg != 1 || rep == 2 || fired[rep] {
			return
		}
		c.FlipRegisterBit(proc.GPRClass, 1, 0, uint(40+rep))
		fired[rep] = true
	}
	dir := t.TempDir()
	cfg.Trace = telemetry.NewRecorder(0)
	cfg.Trace.SetDir(dir)
	stats, err := NewRuntime(newTestEngine(13), cfg).Run(loopProgram(120_000))
	if err != nil {
		t.Fatal(err)
	}
	if !fired[0] || !fired[1] {
		t.Skip("both replicas were not corrupted in segment 1")
	}
	if stats.VoteNoQuorum != 1 {
		t.Fatalf("no-quorum votes = %d, want 1", stats.VoteNoQuorum)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
	if err != nil || len(dumps) != 1 || filepath.Base(dumps[0]) != "flight-main-0.jsonl" {
		t.Fatalf("dumps = %v (err %v), want exactly flight-main-0.jsonl", dumps, err)
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	var vote, seal, note bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n")[1:] {
		var s telemetry.StageSpan
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("dump line %q: %v", line, err)
		}
		vote = vote || s.Kind == telemetry.Vote && s.Segment == 1
		seal = seal || s.Stage == telemetry.StageSeal && s.Segment == 1
		note = note || s.Kind == "no-quorum"
	}
	if !vote || !seal || !note {
		t.Errorf("dump holds vote=%v seal=%v no-quorum note=%v for segment 1, want all:\n%s", vote, seal, note, raw)
	}
}

// TestNMRNoQuorumArbitratedWithRecovery: with recovery enabled a no-quorum
// vote is handed to the existing arbitration machinery — the clean referee
// reproduces the end checkpoint (the main was fine), so the double replica
// fault is absorbed and the run completes.
func TestNMRNoQuorumArbitratedWithRecovery(t *testing.T) {
	cfg := nmrConfig()
	cfg.EnableRecovery = true
	fired := [3]bool{}
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
		if seg != 1 || rep == 2 || fired[rep] {
			return
		}
		c.FlipRegisterBit(proc.GPRClass, 1, 0, uint(40+rep))
		fired[rep] = true
	}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(120_000))
	if err != nil {
		t.Fatal(err)
	}
	if !fired[0] || !fired[1] {
		t.Skip("both replicas were not corrupted in segment 1")
	}
	if stats.Detected != nil {
		t.Fatalf("no-quorum not recovered by arbitration: %v", stats.Detected)
	}
	if stats.Arbitrations != 1 || stats.RecoveredCheckerFaults != 1 {
		t.Errorf("arbitrations=%d recovered=%d, want 1/1", stats.Arbitrations, stats.RecoveredCheckerFaults)
	}
	if stats.Rollbacks != 0 {
		t.Errorf("rollbacks = %d, want 0", stats.Rollbacks)
	}
}

// TestNMRHookReplicaIndices pins the hook contract: ReplicaHook fires for
// every replica with its index.
func TestNMRHookReplicaIndices(t *testing.T) {
	cfg := nmrConfig()
	replicaCalls := map[int]int{}
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) { replicaCalls[rep]++ }
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	if _, err := rt.Run(loopProgram(60_000)); err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		if replicaCalls[rep] == 0 {
			t.Errorf("ReplicaHook never fired for replica %d", rep)
		}
	}
	if len(replicaCalls) != 3 {
		t.Errorf("ReplicaHook saw indices %v, want exactly {0,1,2}", replicaCalls)
	}
}

// TestNMRDiverseReplicasStayEquivalent: replica substrate diversity (skid
// width, dispatch phase, big-core placement, cold caches) must change only
// how replicas execute, never what they compute: a clean diverse run is
// still unanimous with the baseline result.
func TestNMRDiverseReplicasStayEquivalent(t *testing.T) {
	prog := loopProgram(120_000)
	be := newTestEngine(13)
	base, err := be.RunBaseline(prog, be.M.BigCores()[0])
	if err != nil {
		t.Fatal(err)
	}

	cfg := nmrConfig()
	cfg.Diversity = []string{"none", "skid4x", "bigcore"}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != nil {
		t.Fatalf("diversity caused a false positive: %v", stats.Detected)
	}
	if stats.VoteUnanimous != len(stats.Segments) {
		t.Errorf("unanimous = %d, segments = %d", stats.VoteUnanimous, len(stats.Segments))
	}
	if stats.ExitCode != base.ExitCode {
		t.Errorf("exit code %d != baseline %d", stats.ExitCode, base.ExitCode)
	}

	// The other presets must be equally invisible to the verdict.
	cfg2 := nmrConfig()
	cfg2.Diversity = []string{"quantum", "skid2x", "coldcache"}
	e2 := newTestEngine(13)
	stats2, err := NewRuntime(e2, cfg2).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Detected != nil || stats2.ExitCode != base.ExitCode {
		t.Errorf("preset set 2: detected=%v exit=%d, want clean/%d",
			stats2.Detected, stats2.ExitCode, base.ExitCode)
	}
}

// TestValidateDiversity: every published preset validates; unknown names
// are rejected with a descriptive error.
func TestValidateDiversity(t *testing.T) {
	if err := ValidateDiversity(DiversityPresets); err != nil {
		t.Errorf("published presets rejected: %v", err)
	}
	if err := ValidateDiversity(nil); err != nil {
		t.Errorf("empty list rejected: %v", err)
	}
	if err := ValidateDiversity([]string{"none", "banana"}); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestNMRRequiresCompareStates: the vote is a state comparison; a RAFT-like
// config with replicas is a configuration error, caught at construction.
func TestNMRRequiresCompareStates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Checkers > 1 without CompareStates did not panic")
		}
	}()
	cfg := RAFTConfig()
	cfg.Checkers = 3
	NewRuntime(newTestEngine(1), cfg)
}

// TestNMRTelemetryIsObservationOnly extends the determinism guarantee to
// 3-replica runs: a fully instrumented NMR run is byte-identical to a plain
// one.
func TestNMRTelemetryIsObservationOnly(t *testing.T) {
	run := func(withTelemetry bool) *RunStats {
		cfg := nmrConfig()
		if withTelemetry {
			cfg.Metrics = telemetry.NewRegistry()
			cfg.Spans = telemetry.NewSpanRecorder(0)
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
		plain.VoteUnanimous != instrumented.VoteUnanimous ||
		!bytes.Equal(plain.Stdout, instrumented.Stdout) {
		t.Errorf("telemetry perturbed the NMR simulation:\nplain: wall=%v energy=%v unanimous=%d\ninstr: wall=%v energy=%v unanimous=%d",
			plain.AllWallNs, plain.EnergyJ, plain.VoteUnanimous,
			instrumented.AllWallNs, instrumented.EnergyJ, instrumented.VoteUnanimous)
	}
}

// TestNMRForwardRepairSpans: the repaired segment's span closes with the
// forward-repaired outcome and discarded descendants close as rollback.
func TestNMRForwardRepairSpans(t *testing.T) {
	spans := telemetry.NewSpanRecorder(0)
	cfg := nmrConfig()
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
	if !fired || stats.ForwardRepairs == 0 {
		t.Skip("injection did not land in a forward-repair window")
	}
	repaired := 0
	for _, sp := range spans.Spans() {
		if sp.Outcome == telemetry.OutcomeForwardRepaired {
			repaired++
		}
	}
	if repaired != stats.ForwardRepairs {
		t.Errorf("forward-repaired spans = %d, stats = %d", repaired, stats.ForwardRepairs)
	}
}
