package stats

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"parallaft/internal/core"
	"parallaft/internal/workload"
)

// reconciledRows asserts the attribution invariant on every row: no charge
// unattributed, and the classes summing to the cores' own active-time books
// up to float reassociation.
func reconciledRows(t *testing.T, rows []LedgerRow) {
	t.Helper()
	for _, row := range rows {
		s := row.Summary
		if err := s.Reconcile(); err != nil {
			t.Errorf("%s: %v", row.Name, err)
		}
		if s.ActiveSimNs <= 0 {
			t.Errorf("%s: empty ledger", row.Name)
		}
		if math.Abs(s.ActiveSimNs-s.BookNs) > 1e-9*s.BookNs {
			t.Errorf("%s: classes sum to %.17g ns, the cores' books to %.17g ns", row.Name, s.ActiveSimNs, s.BookNs)
		}
	}
}

// TestLedgerReconcilesAcrossSuite drives the attribution invariant over the
// full workload suite: RunLedger reads the ledger of every program of every
// workload and fails if any charge went unattributed, and every row's
// classes must sum to its machines' time books. Scale is reduced — the
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
	reconciledRows(t, rows)
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
	if len(rows) != 1 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	reconciledRows(t, rows)
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
