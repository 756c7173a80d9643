package stats

import (
	"runtime"
	"strings"
	"testing"

	"parallaft/internal/core"
	"parallaft/internal/workload"
)

// TestLedgerReconcilesAcrossSuite drives the attribution invariant over the
// full workload suite: every program of every workload runs with a ledger
// attached, and RunLedger fails if any of them does not reconcile exactly
// against its machine's time and energy books. Scale is reduced — the
// invariant is structural, not length-dependent. 0.14 is the smallest scale
// at which every workload still charges the same activity classes as at 0.2
// (below it 403.gcc takes no slicing barrier).
func TestLedgerReconcilesAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite reconciliation is not a -short test")
	}
	r := NewRunner()
	r.Scale = 0.14
	r.Parallel = runtime.NumCPU()
	names := workload.Names()
	rows, err := r.RunLedger(names)
	if err != nil {
		t.Fatalf("RunLedger over the suite: %v", err)
	}
	if len(rows) != len(names) {
		t.Fatalf("rows = %d, workloads = %d", len(rows), len(names))
	}
	for _, row := range rows {
		if row.Summary.ActiveSimNs <= 0 {
			t.Errorf("%s: empty ledger", row.Name)
		}
	}
}

// TestLedgerReconcilesUnderNMR: the invariant with three voting replicas —
// extra substrates, vote-hash charges, diversity presets.
func TestLedgerReconcilesUnderNMR(t *testing.T) {
	r := NewRunner()
	r.Scale = 0.2
	r.Parallel = runtime.NumCPU()
	r.ConfigTweak = func(c *core.Config) {
		if c.CompareStates {
			c.Checkers = 3
		}
	}
	rows, err := r.RunLedger([]string{"429.mcf"})
	if err != nil {
		t.Fatalf("RunLedger with -checkers 3: %v", err)
	}
	if len(rows) != 1 || rows[0].Summary.ActiveSimNs <= 0 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
}

// TestFormatLedgerShape: the rendered table has one row per workload and
// the share columns of a real run sum to ~100%.
func TestFormatLedgerShape(t *testing.T) {
	r := NewRunner()
	r.Scale = 0.2
	r.Parallel = runtime.NumCPU()
	rows, err := r.RunLedger([]string{"429.mcf", "470.lbm"})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatLedger(rows)
	if !strings.Contains(out, "429.mcf") || !strings.Contains(out, "470.lbm") {
		t.Errorf("table missing workload rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+len(rows) {
		t.Errorf("table has %d lines, want %d:\n%s", len(lines), 3+len(rows), out)
	}
}
