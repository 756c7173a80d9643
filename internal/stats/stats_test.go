package stats

import (
	"math"
	"strings"
	"testing"

	"parallaft/internal/machine"
	"parallaft/internal/workload"
)

func TestGeomeanOverhead(t *testing.T) {
	if got := GeomeanOverhead(nil); got != 0 {
		t.Errorf("empty geomean = %v", got)
	}
	if got := GeomeanOverhead([]float64{10}); math.Abs(got-10) > 1e-9 {
		t.Errorf("singleton geomean = %v", got)
	}
	// geomean of (1.1, 1.1) is 1.1
	if got := GeomeanOverhead([]float64{10, 10}); math.Abs(got-10) > 1e-9 {
		t.Errorf("uniform geomean = %v", got)
	}
	// 0% and 21% -> sqrt(1.21)-1 = 10%
	if got := GeomeanOverhead([]float64{0, 21}); math.Abs(got-10) > 1e-6 {
		t.Errorf("mixed geomean = %v, want 10", got)
	}
	// tolerates a pathological -100% without blowing up
	if got := GeomeanOverhead([]float64{-100, 0}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("pathological geomean = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("a-much-longer-name", "22")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	// all rows padded to the same width
	if len(lines[2]) == 0 || len(lines[0]) == 0 {
		t.Fatal("empty lines")
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator row = %q", lines[1])
	}
	if Pct(12.345) != "12.3%" || F2(1.2345) != "1.23" {
		t.Error("formatters wrong")
	}
}

func TestModeString(t *testing.T) {
	if ModeBaseline.String() != "baseline" || ModeParallaft.String() != "parallaft" || ModeRAFT.String() != "raft" {
		t.Error("mode names wrong")
	}
}

func TestComparisonMath(t *testing.T) {
	c := &Comparison{
		Name:      "x",
		Baseline:  &SessionResult{WallNs: 100, EnergyJ: 10, AvgPSS: 1000, UserNs: 90, SysNs: 5},
		Parallaft: &SessionResult{WallNs: 120, MainWallNs: 110, EnergyJ: 15, AvgPSS: 1500, UserNs: 95, SysNs: 8},
		RAFT:      &SessionResult{WallNs: 118, EnergyJ: 19, AvgPSS: 1200},
	}
	if got := c.PerfOverhead(ModeParallaft); math.Abs(got-20) > 1e-9 {
		t.Errorf("perf overhead = %v", got)
	}
	if got := c.EnergyOverhead(ModeRAFT); math.Abs(got-90) > 1e-9 {
		t.Errorf("energy overhead = %v", got)
	}
	if got := c.MemoryNormalized(ModeParallaft); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("memory normalized = %v", got)
	}
	fork, cont, sync, rt := c.Breakdown()
	if math.Abs(fork-3) > 1e-9 || math.Abs(cont-5) > 1e-9 || math.Abs(sync-10) > 1e-9 {
		t.Errorf("breakdown = %v %v %v %v", fork, cont, sync, rt)
	}
	// components sum to the total by construction
	total := c.PerfOverhead(ModeParallaft)
	if math.Abs(fork+cont+sync+rt-total) > 1e-9 {
		t.Errorf("breakdown does not sum: %v != %v", fork+cont+sync+rt, total)
	}
}

func TestRunWorkloadUnknownName(t *testing.T) {
	r := NewRunner()
	if _, err := r.RunSuite([]string{"bogus"}, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSuiteFormattersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	r := NewRunner()
	r.Scale = 0.1
	sr, err := r.RunSuite([]string{"444.namd", "403.gcc"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig5":   sr.FormatFig5(),
		"fig6":   sr.FormatFig6(),
		"fig7":   sr.FormatFig7(),
		"fig8":   sr.FormatFig8(),
		"table1": sr.FormatTable1(),
		"intel":  sr.FormatIntel(),
	} {
		if (!strings.Contains(out, "%") && !strings.Contains(out, "x")) || len(out) < 50 {
			t.Errorf("%s output suspicious:\n%s", name, out)
		}
	}
	if !strings.Contains(sr.FormatFig5(), "444.namd") {
		t.Error("fig5 missing benchmark rows")
	}
	if !strings.Contains(sr.FormatFig5(), "geomean") {
		t.Error("fig5 missing geomean row")
	}
}

func TestFig9SweepTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("slicing-period sweep is slow")
	}
	r := NewRunner()
	r.Scale = 0.5
	periods := []float64{300_000, 4_000_000}
	points, err := r.RunFig9([]string{"429.mcf"}, periods)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	short, long := points[0], points[1]
	// §5.5: fork+COW falls with longer periods; last-checker sync rises.
	if short.ForkCOW <= long.ForkCOW {
		t.Errorf("fork+COW should fall with period: %.1f%% @%fM vs %.1f%% @%fM",
			short.ForkCOW, short.PeriodCycles/1e6, long.ForkCOW, long.PeriodCycles/1e6)
	}
	if short.LastChecker >= long.LastChecker {
		t.Errorf("last-checker sync should rise with period: %.1f%% vs %.1f%%",
			short.LastChecker, long.LastChecker)
	}
	out := FormatFig9(points)
	if !strings.Contains(out, "Figure 9(a)") || !strings.Contains(out, "429.mcf") {
		t.Errorf("fig9 formatting:\n%s", out)
	}
}

func TestIntelRunnerPreset(t *testing.T) {
	r := NewRunner()
	r.MachineCfg = machine.IntelLike
	if r.MachineCfg().PageSize != 4096 {
		t.Error("intel runner page size")
	}
	if testing.Short() {
		t.Skip("runs a workload")
	}
	r.Scale = 0.1
	c, err := r.Compare(workload.Get("444.namd"), false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Parallaft.Detected != nil {
		t.Errorf("intel false positive: %v", c.Parallaft.Detected)
	}
}

func TestBigWorkFractionBounds(t *testing.T) {
	s := &SessionResult{}
	if s.BigWorkFraction() != 0 {
		t.Error("zero-work fraction nonzero")
	}
	s.CheckerBigInstrs, s.CheckerLittleInstrs = 1, 3
	if got := s.BigWorkFraction(); got != 0.25 {
		t.Errorf("work fraction = %v", got)
	}
}
