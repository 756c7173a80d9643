package core

import (
	"strings"
	"testing"

	"parallaft/internal/machine"
	"parallaft/internal/proc"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
)

// TestLedgerReconciles is the attribution invariant on a clean run: the
// per-activity sums equal the machine's time book bit-for-bit, the energy
// recomputation matches, and not one charge landed unattributed.
func TestLedgerReconciles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	ledger := profile.NewLedger()
	cfg.Ledger = ledger
	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(testProgram(40_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if err := ledger.Reconcile(e.M); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if n := ledger.ClassCharges(machine.ActUnattributed); n != 0 {
		t.Errorf("%d charges landed in the unattributed class", n)
	}
	if ledger.ClassNs(machine.ActGuestMain) <= 0 || ledger.ClassNs(machine.ActGuestChecker) <= 0 {
		t.Errorf("guest classes empty: main=%v checker=%v",
			ledger.ClassNs(machine.ActGuestMain), ledger.ClassNs(machine.ActGuestChecker))
	}
}

// TestLedgerReconcilesUnderRecovery: arbitration runs a referee on recovery
// time; the invariant must survive the extra process and its charges.
func TestLedgerReconcilesUnderRecovery(t *testing.T) {
	cfg := recoveryConfig()
	ledger := profile.NewLedger()
	cfg.Ledger = ledger
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
	if err := ledger.Reconcile(e.M); err != nil {
		t.Fatalf("reconcile after recovery: %v", err)
	}
	if ledger.ClassNs(machine.ActRecovery) <= 0 {
		t.Errorf("arbitration charged no recovery time")
	}
}

// TestLedgerReconcilesNMR: three replicas vote; the invariant must hold
// with the extra replica substrates and the vote-hash charges.
func TestLedgerReconcilesNMR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	cfg.Checkers = 3
	ledger := profile.NewLedger()
	cfg.Ledger = ledger
	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(testProgram(40_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if err := ledger.Reconcile(e.M); err != nil {
		t.Fatalf("reconcile under NMR: %v", err)
	}
	if ledger.ClassNs(machine.ActVote) <= 0 {
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
