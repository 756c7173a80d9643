package core

import (
	"math"
	"strings"
	"testing"

	"parallaft/internal/machine"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
)

// reconcileLedger reads the ledger off a finished run and asserts the
// attribution invariant: not one charge landed unattributed, and the classes
// sum to the cores' own active-time books up to float reassociation.
func reconcileLedger(t *testing.T, e *sim.Engine, st *RunStats) {
	t.Helper()
	s := profile.Summarize(e.M, st.AllWallNs)
	if err := s.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if math.Abs(s.ActiveSimNs-s.BookNs) > 1e-9*s.BookNs {
		t.Errorf("classes sum to %.17g ns, the cores' books to %.17g ns", s.ActiveSimNs, s.BookNs)
	}
}

// TestLedgerReconciles is the attribution invariant on a clean run, with
// both guest classes charged.
func TestLedgerReconciles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(testProgram(40_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	reconcileLedger(t, e, stats)
	if main, chk := e.M.Charged(machine.ActGuestMain).Ns, e.M.Charged(machine.ActGuestChecker).Ns; main <= 0 || chk <= 0 {
		t.Errorf("guest classes empty: main=%v checker=%v", main, chk)
	}
}

// TestLedgerReconcilesUnderRecovery: arbitration runs a referee on recovery
// time; the invariant must survive the extra process and its charges.
func TestLedgerReconcilesUnderRecovery(t *testing.T) {
	cfg := recoveryConfig()
	fired := false
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
		if fired || seg < 1 || rep != 0 {
			return
		}
		c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
		fired = true
	}
	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(120_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("fault not absorbed: %v", stats.Detected)
	}
	reconcileLedger(t, e, stats)
	if e.M.Charged(machine.ActRecovery).Ns <= 0 {
		t.Errorf("arbitration charged no recovery time")
	}
}

// TestLedgerReconcilesNMR: three replicas vote; the invariant must hold
// with the extra replica substrates and the vote-hash charges.
func TestLedgerReconcilesNMR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	cfg.Checkers = 3
	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(testProgram(40_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	reconcileLedger(t, e, stats)
	if e.M.Charged(machine.ActVote).Ns <= 0 {
		t.Errorf("NMR run charged no vote-hash time")
	}
}

// TestProfilerAttributesActors: the sampling profiler sees both the main
// and at least one replica, attributed to workload symbols, and the window
// sampler closes sim-clock windows over the run.
func TestProfilerAttributesActors(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	cfg.Metrics = reg
	rec := profile.NewRecorder(5_000)
	cfg.Profiler = rec
	windows := profile.NewWindowSampler(reg, 1e5, 0)
	cfg.Windows = windows
	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	if _, err := rt.Run(testProgram(40_000)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rec.TotalSamples() == 0 {
		t.Fatal("profiler collected no samples")
	}
	folded := rec.FoldedStacks()
	if !strings.Contains(folded, "main;") {
		t.Errorf("no main actor in folded stacks:\n%s", folded)
	}
	if !strings.Contains(folded, "replica-0;") {
		t.Errorf("no replica-0 actor in folded stacks:\n%s", folded)
	}
	if len(windows.Windows()) == 0 {
		t.Error("window sampler closed no windows")
	}
}
