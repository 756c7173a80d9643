package stats

import (
	"fmt"
	"sort"
	"strings"

	"parallaft/internal/core"
	"parallaft/internal/inject"
	"parallaft/internal/workload"
)

// SuiteResult holds the per-benchmark comparisons an experiment renders.
type SuiteResult struct {
	Comparisons []*Comparison
}

// resolveWorkloads maps workload names to definitions (nil = full suite).
func resolveWorkloads(names []string) ([]*workload.Workload, error) {
	if names == nil {
		return workload.All(), nil
	}
	var ws []*workload.Workload
	for _, n := range names {
		w := workload.Get(n)
		if w == nil {
			return nil, fmt.Errorf("stats: unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// RunSuite runs baseline/Parallaft(/RAFT) sessions for the named workloads
// (nil = the full suite). Workloads are independent simulations, so they
// fan out over Runner.Parallel workers; comparisons come back in input
// order, making the rendered figures identical to a serial run.
func (r *Runner) RunSuite(names []string, withRAFT bool) (*SuiteResult, error) {
	ws, err := resolveWorkloads(names)
	if err != nil {
		return nil, err
	}
	cs, err := fanOut(r, "suite", len(ws), func(i int) (*Comparison, error) {
		c, err := r.Compare(ws[i], withRAFT)
		if err != nil {
			return nil, err
		}
		if c.Parallaft.Detected != nil {
			return nil, fmt.Errorf("stats: %s: parallaft flagged a phantom error: %v", ws[i].Name, c.Parallaft.Detected)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return &SuiteResult{Comparisons: cs}, nil
}

func (sr *SuiteResult) geomeans() (parPerf, raftPerf, parEnergy, raftEnergy, parMem, raftMem float64) {
	var pp, rp, pe, re []float64
	var pm, rm []float64
	for _, c := range sr.Comparisons {
		pp = append(pp, c.PerfOverhead(ModeParallaft))
		pe = append(pe, c.EnergyOverhead(ModeParallaft))
		pm = append(pm, c.MemoryNormalized(ModeParallaft))
		if c.RAFT != nil {
			rp = append(rp, c.PerfOverhead(ModeRAFT))
			re = append(re, c.EnergyOverhead(ModeRAFT))
			rm = append(rm, c.MemoryNormalized(ModeRAFT))
		}
	}
	return GeomeanOverhead(pp), GeomeanOverhead(rp), GeomeanOverhead(pe), GeomeanOverhead(re),
		Geomean(pm), Geomean(rm)
}

// FormatFig5 renders the figure-5 data: per-benchmark performance overhead
// of Parallaft and RAFT, plus geometric means (paper: 15.9 % vs 16.2 %).
func (sr *SuiteResult) FormatFig5() string {
	t := &Table{Header: []string{"benchmark", "parallaft", "raft"}}
	for _, c := range sr.Comparisons {
		raft := "-"
		if c.RAFT != nil {
			raft = Pct(c.PerfOverhead(ModeRAFT))
		}
		t.AddRow(c.Name, Pct(c.PerfOverhead(ModeParallaft)), raft)
	}
	pp, rp, _, _, _, _ := sr.geomeans()
	t.AddRow("geomean", Pct(pp), Pct(rp))
	return "Figure 5: performance overhead (paper geomeans: Parallaft 15.9%, RAFT 16.2%)\n" + t.String()
}

// FormatFig6 renders the figure-6 data: Parallaft's overhead decomposed
// into fork+COW, resource contention, last-checker sync and runtime work.
func (sr *SuiteResult) FormatFig6() string {
	t := &Table{Header: []string{"benchmark", "fork+COW", "contention", "last-sync", "runtime", "total", "bigwork"}}
	for _, c := range sr.Comparisons {
		f, ct, lc, rw := c.Breakdown()
		t.AddRow(c.Name, Pct(f), Pct(ct), Pct(lc), Pct(rw),
			Pct(c.PerfOverhead(ModeParallaft)),
			Pct(c.Parallaft.BigWorkFraction()*100))
	}
	return "Figure 6: Parallaft performance-overhead breakdown (\"bigwork\" = checker work on big cores;\npaper quotes 41.7/38.0/50.0% for mcf/milc/lbm)\n" + t.String()
}

// FormatFig7 renders the figure-7 data: energy overhead (paper geomeans:
// Parallaft 44.3 %, RAFT 87.8 %; lbm is the one case where Parallaft
// exceeds RAFT).
func (sr *SuiteResult) FormatFig7() string {
	t := &Table{Header: []string{"benchmark", "parallaft", "raft"}}
	for _, c := range sr.Comparisons {
		raft := "-"
		if c.RAFT != nil {
			raft = Pct(c.EnergyOverhead(ModeRAFT))
		}
		t.AddRow(c.Name, Pct(c.EnergyOverhead(ModeParallaft)), raft)
	}
	_, _, pe, re, _, _ := sr.geomeans()
	t.AddRow("geomean", Pct(pe), Pct(re))
	return "Figure 7: energy overhead (paper geomeans: Parallaft 44.3%, RAFT 87.8%)\n" + t.String()
}

// FormatFig8 renders the figure-8 data: normalised memory usage (average
// summed PSS over baseline; paper geomeans 1.0332 vs 1.0195).
func (sr *SuiteResult) FormatFig8() string {
	t := &Table{Header: []string{"benchmark", "parallaft", "raft"}}
	for _, c := range sr.Comparisons {
		raft := "-"
		if c.RAFT != nil {
			raft = F2(c.MemoryNormalized(ModeRAFT)) + "x"
		}
		t.AddRow(c.Name, F2(c.MemoryNormalized(ModeParallaft))+"x", raft)
	}
	_, _, _, _, pm, rm := sr.geomeans()
	t.AddRow("geomean", F2(pm)+"x", F2(rm)+"x")
	return "Figure 8: normalized memory usage (paper geomeans: Parallaft 1.033x, RAFT 1.020x)\n" + t.String()
}

// FormatTable1 renders the two runtime-based rows of table 1 with measured
// numbers.
func (sr *SuiteResult) FormatTable1() string {
	pp, rp, pe, re, pm, rm := sr.geomeans()
	t := &Table{Header: []string{"approach", "hw", "src", "memory", "performance", "energy"}}
	t.AddRow("RAFT (asynchronous duplication)", "N", "N", Pct((rm-1)*100), Pct(rp), Pct(re))
	t.AddRow("Parallaft (parallel heterogeneous)", "N", "N", Pct((pm-1)*100), Pct(pp), Pct(pe))
	return "Table 1 (runtime-based rows; paper: RAFT 1.95%/16.2%/87.8%, Parallaft 3.32%/15.9%/44.3%)\n" + t.String()
}

// --- figure 9: slicing-period sweep --------------------------------------

// SweepPoint is one (benchmark, period) measurement of figure 9.
type SweepPoint struct {
	Benchmark    string
	PeriodCycles float64
	ForkCOW      float64 // % of baseline (fig. 9a)
	LastChecker  float64 // % of baseline (fig. 9b)
	Combined     float64 // total overhead % (fig. 9c)
}

// Fig9Periods are the sweep's slicing periods: the paper's 1/2/5/10/20
// billion cycles at the 1:2500 simulation time scale.
var Fig9Periods = []float64{400_000, 800_000, 2_000_000, 4_000_000, 8_000_000}

// Fig9Benchmarks are the paper's sweep subjects.
var Fig9Benchmarks = []string{"403.gcc", "429.mcf", "458.sjeng"}

// RunFig9 sweeps the slicing period for the figure-9 benchmarks. The sweep
// is a grid of independent runs: per-benchmark baselines fan out first,
// then every (benchmark, period) Parallaft run; points come back in the
// serial nesting order (benchmark-major, period-minor).
func (r *Runner) RunFig9(benchmarks []string, periods []float64) ([]SweepPoint, error) {
	if benchmarks == nil {
		benchmarks = Fig9Benchmarks
	}
	if periods == nil {
		periods = Fig9Periods
	}
	ws, err := resolveWorkloads(benchmarks)
	if err != nil {
		return nil, err
	}
	bases, err := fanOut(r, "fig9 baselines", len(ws), func(i int) (*SessionResult, error) {
		return r.RunWorkload(ws[i], ModeBaseline)
	})
	if err != nil {
		return nil, err
	}

	type cell struct {
		bench  int
		period float64
	}
	var cells []cell
	for b := range ws {
		for _, p := range periods {
			cells = append(cells, cell{b, p})
		}
	}
	return fanOut(r, "fig9 sweep", len(cells), func(i int) (SweepPoint, error) {
		w, period := ws[cells[i].bench], cells[i].period
		sweep := *r
		sweep.ConfigTweak = func(c *core.Config) {
			c.SlicePeriodCycles = period
			if r.ConfigTweak != nil {
				r.ConfigTweak(c)
			}
		}
		par, err := sweep.RunWorkload(w, ModeParallaft)
		if err != nil {
			return SweepPoint{}, err
		}
		c := &Comparison{Name: w.Name, Baseline: bases[cells[i].bench], Parallaft: par}
		f, _, lc, _ := c.Breakdown()
		return SweepPoint{
			Benchmark:    w.Name,
			PeriodCycles: period,
			ForkCOW:      f,
			LastChecker:  lc,
			Combined:     c.PerfOverhead(ModeParallaft),
		}, nil
	})
}

// FormatFig9 renders the three panels of figure 9.
func FormatFig9(points []SweepPoint) string {
	var sb strings.Builder
	panels := []struct {
		title string
		get   func(SweepPoint) float64
	}{
		{"Figure 9(a): forking-and-COW overhead vs slicing period", func(p SweepPoint) float64 { return p.ForkCOW }},
		{"Figure 9(b): last-checker-sync overhead vs slicing period", func(p SweepPoint) float64 { return p.LastChecker }},
		{"Figure 9(c): combined overhead vs slicing period", func(p SweepPoint) float64 { return p.Combined }},
	}
	byBench := map[string][]SweepPoint{}
	var benches []string
	var periods []float64
	seenP := map[float64]bool{}
	for _, p := range points {
		if len(byBench[p.Benchmark]) == 0 {
			benches = append(benches, p.Benchmark)
		}
		byBench[p.Benchmark] = append(byBench[p.Benchmark], p)
		if !seenP[p.PeriodCycles] {
			seenP[p.PeriodCycles] = true
			periods = append(periods, p.PeriodCycles)
		}
	}
	sort.Float64s(periods)
	for _, panel := range panels {
		header := []string{"benchmark"}
		for _, p := range periods {
			header = append(header, fmt.Sprintf("%.1fM", p/1e6))
		}
		t := &Table{Header: header}
		for _, b := range benches {
			row := []string{b}
			for _, period := range periods {
				val := "-"
				for _, pt := range byBench[b] {
					if pt.PeriodCycles == period {
						val = Pct(panel.get(pt))
					}
				}
				row = append(row, val)
			}
			t.AddRow(row...)
		}
		sb.WriteString(panel.title)
		sb.WriteString(" (periods in sim cycles; 2.0M = the paper's 5 G)\n")
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// --- figure 10: fault injection -------------------------------------------

// InjectionRow is one benchmark's fault-injection outcome distribution.
type InjectionRow struct {
	Benchmark string
	Report    *inject.Report
}

// RunFig10 runs the §5.6 fault-injection campaign over the named workloads
// (nil = full suite); trials is per segment (paper: 5). Workloads run in
// sequence. Each workload's campaign is one timed run, and its trials —
// each a re-check of its segment on no machine, from the segment's start
// to its verdict — run beside it over Runner.Parallel workers inside
// inject.Campaign.
func (r *Runner) RunFig10(names []string, trials int, scale float64) ([]InjectionRow, error) {
	ws, err := resolveWorkloads(names)
	if err != nil {
		return nil, err
	}
	var rows []InjectionRow
	for _, w := range ws {
		progs := w.Gen(scale)
		// Inject into the first input program of multi-input benchmarks.
		camp := &inject.Campaign{
			NewEngine:        r.NewEngine,
			Program:          progs[0],
			Config:           r.RuntimeConfig(ModeParallaft),
			TrialsPerSegment: trials,
			Seed:             r.Seed * 7919,
			Parallel:         r.Parallel,
			Progress:         r.Progress,
			Telemetry:        r.Telemetry,
		}
		rep, err := camp.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rows = append(rows, InjectionRow{Benchmark: w.Name, Report: rep})
	}
	return rows, nil
}

// FormatFig10 renders the figure-10 outcome distribution.
func FormatFig10(rows []InjectionRow) string {
	t := &Table{Header: []string{"benchmark", "detected", "exception", "timeout", "benign", "trials"}}
	var agg [inject.NumOutcomes]int
	total := 0
	for _, row := range rows {
		rep := row.Report
		landed := 0
		for _, tr := range rep.Trials {
			if tr.Outcome != inject.OutcomeFailed {
				landed++
			}
		}
		t.AddRow(row.Benchmark,
			Pct(rep.Rate(inject.OutcomeDetected)*100),
			Pct(rep.Rate(inject.OutcomeException)*100),
			Pct(rep.Rate(inject.OutcomeTimeout)*100),
			Pct(rep.Rate(inject.OutcomeBenign)*100),
			fmt.Sprintf("%d", landed))
		for o, n := range rep.Counts {
			agg[o] += n
		}
		total += landed
	}
	if total > 0 {
		t.AddRow("average",
			Pct(float64(agg[inject.OutcomeDetected])/float64(total)*100),
			Pct(float64(agg[inject.OutcomeException])/float64(total)*100),
			Pct(float64(agg[inject.OutcomeTimeout])/float64(total)*100),
			Pct(float64(agg[inject.OutcomeBenign])/float64(total)*100),
			fmt.Sprintf("%d", total))
	}
	return "Figure 10: fault-injection outcomes (paper: 43.3% benign on average, everything else detected)\n" + t.String()
}

// --- §5.7 stress tests ------------------------------------------------------

// StressRow is one stress microbenchmark's slowdown.
type StressRow struct {
	Name          string
	ParallaftX    float64
	RAFTX         float64
	PaperParallaX float64
}

// RunStress measures the §5.7 syscall/signal stress slowdowns, fanning the
// microbenchmarks out over Runner.Parallel workers.
func (r *Runner) RunStress() ([]StressRow, error) {
	paper := map[string]float64{
		"stress.getpid":  124.5,
		"stress.devzero": 18.5,
		"stress.sigusr1": 39.8,
	}
	sws := workload.Stress()
	return fanOut(r, "stress", len(sws), func(i int) (StressRow, error) {
		w := sws[i]
		base, err := r.RunWorkload(w, ModeBaseline)
		if err != nil {
			return StressRow{}, err
		}
		par, err := r.RunWorkload(w, ModeParallaft)
		if err != nil {
			return StressRow{}, err
		}
		raft, err := r.RunWorkload(w, ModeRAFT)
		if err != nil {
			return StressRow{}, err
		}
		return StressRow{
			Name:          w.Name,
			ParallaftX:    par.WallNs / base.WallNs,
			RAFTX:         raft.WallNs / base.WallNs,
			PaperParallaX: paper[w.Name],
		}, nil
	})
}

// FormatStress renders the §5.7 numbers.
func FormatStress(rows []StressRow) string {
	t := &Table{Header: []string{"stress test", "parallaft", "raft", "paper"}}
	for _, row := range rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.1fx", row.ParallaftX),
			fmt.Sprintf("%.1fx", row.RAFTX),
			fmt.Sprintf("%.1fx", row.PaperParallaX))
	}
	return "§5.7 syscall/signal stress slowdowns (RAFT is near-identical by shared syscall handling)\n" + t.String()
}

// FormatIntel renders the §5.8 comparison (paper: Parallaft 26.2 % perf /
// 46.7 % energy; RAFT 12.9 % / 50.2 %).
func (sr *SuiteResult) FormatIntel() string {
	pp, rp, pe, re, _, _ := sr.geomeans()
	t := &Table{Header: []string{"metric", "parallaft", "raft", "paper parallaft", "paper raft"}}
	t.AddRow("perf overhead", Pct(pp), Pct(rp), "26.2%", "12.9%")
	t.AddRow("energy overhead", Pct(pe), Pct(re), "46.7%", "50.2%")
	return "§5.8 Intel x86_64 heterogeneous platform\n" + t.String()
}
