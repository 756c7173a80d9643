package stats

import (
	"testing"

	"parallaft/internal/workload"
)

// TestCompareSmoke checks protection is transparent on the suite: for each
// workload, neither Parallaft nor RAFT reports a divergence on a fault-free
// run, and the protected program prints exactly what the unprotected one
// does. The property needs segment boundaries to cross, not long runs, so it
// runs at the smallest scale that still slices every workload several times
// (at 0.1, none of 403.gcc's nine inputs crosses a boundary).
func TestCompareSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload comparison is slow")
	}
	r := NewRunner()
	r.Scale = 0.2

	for _, name := range []string{"444.namd", "429.mcf", "403.gcc", "470.lbm", "458.sjeng"} {
		w := workload.Get(name)
		if w == nil {
			t.Fatalf("workload %s missing", name)
		}
		c, err := r.Compare(w, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Parallaft.Slices < 3 {
			t.Errorf("%s: %d segment boundaries at scale %g, want several", name, c.Parallaft.Slices, r.Scale)
		}
		if c.Parallaft.Detected != nil {
			t.Errorf("%s: parallaft false positive: %v", name, c.Parallaft.Detected)
		}
		if c.RAFT.Detected != nil {
			t.Errorf("%s: raft false positive: %v", name, c.RAFT.Detected)
		}
		if string(c.Parallaft.Stdout) != string(c.Baseline.Stdout) {
			t.Errorf("%s: parallaft stdout differs from baseline", name)
		}
		fc, ct, lc, rw := c.Breakdown()
		t.Logf("%-12s base=%.2fms  par +%.1f%% (fork %.1f, cont %.1f, sync %.1f, rt %.1f)  raft +%.1f%% | energy par +%.1f%% raft +%.1f%% | bigwork %.0f%% slices %d",
			name, c.Baseline.WallNs/1e6,
			c.PerfOverhead(ModeParallaft), fc, ct, lc, rw,
			c.PerfOverhead(ModeRAFT),
			c.EnergyOverhead(ModeParallaft), c.EnergyOverhead(ModeRAFT),
			c.Parallaft.BigWorkFraction()*100, c.Parallaft.Slices)
	}
}
