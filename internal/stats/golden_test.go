package stats

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallaft/internal/core"
	"parallaft/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// The goldens pin the rendered experiment outputs byte for byte. The
// simulated cost model (DirtyPagesHashed, BytesHashed, hashByteNs charging)
// is part of the paper's methodology; host-side optimisations of the
// comparison path — frame-identity fast paths, memoized hashes, concurrent
// hashing — must leave every one of these tables untouched.

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run Golden -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func goldenRunner() *Runner {
	r := NewRunner()
	r.Scale = 0.1
	r.Parallel = 1
	return r
}

// TestGoldenSuiteOutput pins the figure-5/7/8 and table-1 renderings for a
// representative two-workload suite (memory-bound chase + multi-input).
func TestGoldenSuiteOutput(t *testing.T) {
	sr, err := goldenRunner().RunSuite([]string{"429.mcf", "403.gcc"}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := sr.FormatFig5() + sr.FormatFig7() + sr.FormatFig8() + sr.FormatTable1()
	goldenCompare(t, "golden_suite.txt", out)
}

// TestGoldenFig9Output pins the slicing-period sweep rendering on a small
// grid.
func TestGoldenFig9Output(t *testing.T) {
	points, err := goldenRunner().RunFig9(
		[]string{"403.gcc", "458.sjeng"}, []float64{400_000, 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_fig9.txt", FormatFig9(points))
}

// TestGoldenNMROutput pins the Checkers=3 voting-outcome table: the clean
// run is unanimous, the injected checker SEU is absorbed in place with zero
// rollbacks charged, and the injected main fault is repaired by a forward
// state copy — both with the program's output intact.
func TestGoldenNMROutput(t *testing.T) {
	rows, err := goldenRunner().RunNMR()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.RolledBack != 0 {
			t.Errorf("%s: %d rollbacks charged; NMR must absorb or repair forward", row.Scenario, row.RolledBack)
		}
		if !row.OutputIntact {
			t.Errorf("%s: exit code or stdout diverged from the fault-free baseline", row.Scenario)
		}
	}
	goldenCompare(t, "golden_nmr.txt", FormatNMR(rows))
}

// TestGoldenComparisonCounters pins, per suite workload and dirty-page
// discovery, the counters a host-side change to frame handling (recycling,
// identity, the hash memo) could move without touching any table: COW copies
// and dirty pages are simulated books, identity skips and memo hits are the
// host's shortcuts, and all four follow from which frames are shared, never
// from where a frame's memory came from. Frame diffing finds only pages with
// new frames, so its shortcuts are all zero; the full-memory ablation
// exercises identity skips, and three checkers hashing one end checkpoint
// exercise the memo.
func TestGoldenComparisonCounters(t *testing.T) {
	want := map[string][4]uint64{ // COWCopies, DirtyPagesHashed, IdentitySkips, HashCacheHits
		"444.namd/framediff":     {3, 3, 0, 0},
		"429.mcf/framediff":      {1281, 1281, 0, 0},
		"470.lbm/framediff":      {156, 156, 0, 0},
		"403.gcc/framediff":      {45, 45, 0, 0},
		"458.sjeng/framediff":    {26, 26, 0, 0},
		"444.namd/fullmem":       {3, 51, 48, 0},
		"429.mcf/fullmem":        {1281, 1365, 84, 0},
		"470.lbm/fullmem":        {156, 1365, 1209, 0},
		"403.gcc/fullmem":        {45, 189, 144, 0},
		"458.sjeng/fullmem":      {26, 106, 80, 0},
		"444.namd/fullmem-nmr3":  {3, 153, 144, 6},
		"429.mcf/fullmem-nmr3":   {1793, 5733, 354, 3586},
		"470.lbm/fullmem-nmr3":   {158, 5733, 5259, 316},
		"403.gcc/fullmem-nmr3":   {45, 567, 432, 90},
		"458.sjeng/fullmem-nmr3": {27, 318, 237, 54},
	}
	discovery := []struct {
		name  string
		tweak func(*core.Config)
	}{
		{"framediff", func(*core.Config) {}},
		{"fullmem", func(c *core.Config) { c.CompareFullMemory = true }},
		{"fullmem-nmr3", func(c *core.Config) { c.CompareFullMemory, c.Checkers = true, 3 }},
	}
	r := goldenRunner()
	r.Scale = 0.05
	for _, d := range discovery {
		r.ConfigTweak = d.tweak
		for _, name := range []string{"444.namd", "429.mcf", "470.lbm", "403.gcc", "458.sjeng"} {
			res, err := r.RunWorkload(workload.Get(name), ModeParallaft)
			if err != nil {
				t.Fatal(err)
			}
			key := name + "/" + d.name
			got := [4]uint64{res.COWCopies, res.DirtyPagesHashed, res.IdentitySkips, res.HashCacheHits}
			if got != want[key] {
				t.Errorf("%s: COW copies, dirty pages, identity skips, memo hits = %v, want %v", key, got, want[key])
				t.Logf("%q: {%d, %d, %d, %d},", key, got[0], got[1], got[2], got[3])
			}
		}
	}
}

// TestGoldenTable2Output pins the detection-guarantee table, which exercises
// the comparison path's error reporting (detected segment index and all).
func TestGoldenTable2Output(t *testing.T) {
	res, err := goldenRunner().RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "golden_table2.txt", FormatTable2(res))
}

// TestGoldenFig10Trials pins the figure-10 campaign trial by trial: the
// rendered outcome table, then every trial's segment, injection instant (as
// its bit pattern), target register bit, outcome and detail. How a campaign
// reaches a trial's injected segment is a host-side choice; no byte here may
// depend on it.
func TestGoldenFig10Trials(t *testing.T) {
	r := goldenRunner()
	r.Scale = 0.05
	r.Parallel = 2
	rows, err := r.RunFig10([]string{"429.mcf", "458.sjeng", "470.lbm"}, 2, r.Scale)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(FormatFig10(rows))
	for _, row := range rows {
		for _, tr := range row.Report.Trials {
			fmt.Fprintf(&sb, "%s seg %d at %#016x %s: %s %q\n", row.Benchmark, tr.Segment,
				math.Float64bits(tr.AtNs), tr.Target, tr.Outcome, tr.Detail)
		}
	}
	goldenCompare(t, "golden_fig10.txt", sb.String())
}
