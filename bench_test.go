package parallaft

// One benchmark per table and figure of the paper's evaluation (§5), plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// runs the corresponding experiment at reduced scale on a representative
// workload subset and reports the headline quantities as custom metrics;
// cmd/paftbench regenerates the full-scale tables.

import (
	"testing"

	"parallaft/internal/core"
	"parallaft/internal/inject"
	"parallaft/internal/lang"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/sim"
	"parallaft/internal/stats"
	"parallaft/internal/workload"
)

// benchSubset covers the axes the paper's effects ride on: compute-bound
// (namd), memory-bound chase (mcf), write-heavy streaming (lbm), short
// multi-input (gcc), and moderate (sjeng).
var benchSubset = []string{"444.namd", "429.mcf", "470.lbm", "403.gcc", "458.sjeng"}

func benchRunner(b *testing.B) *stats.Runner {
	b.Helper()
	r := stats.NewRunner()
	r.Scale = 0.25
	return r
}

func runSuite(b *testing.B, withRAFT bool) *stats.SuiteResult {
	b.Helper()
	sr, err := benchRunner(b).RunSuite(benchSubset, withRAFT)
	if err != nil {
		b.Fatal(err)
	}
	return sr
}

func geomeanPerf(sr *stats.SuiteResult, mode stats.Mode) float64 {
	var xs []float64
	for _, c := range sr.Comparisons {
		xs = append(xs, c.PerfOverhead(mode))
	}
	return stats.GeomeanOverhead(xs)
}

func geomeanEnergy(sr *stats.SuiteResult, mode stats.Mode) float64 {
	var xs []float64
	for _, c := range sr.Comparisons {
		xs = append(xs, c.EnergyOverhead(mode))
	}
	return stats.GeomeanOverhead(xs)
}

// BenchmarkCampaignScaling measures the parallel campaign engine on a
// multi-workload suite: the old serial path against a fan-out over all
// cores. The tables produced are byte-identical either way (ordered
// collection + per-run seed derivation); on a >=4-core machine the
// parallel run finishes the campaign >1.5x faster in wall-clock terms,
// while on a single-core machine the two converge.
func BenchmarkCampaignScaling(b *testing.B) {
	cases := []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel", 0}, // one worker per CPU
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			r := benchRunner(b)
			r.Parallel = bc.parallel
			for i := 0; i < b.N; i++ {
				if _, err := r.RunSuite(benchSubset, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Rows regenerates the runtime-based rows of table 1:
// performance, energy and memory overhead geomeans for Parallaft and RAFT.
func BenchmarkTable1Rows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runSuite(b, true)
		b.ReportMetric(geomeanPerf(sr, stats.ModeParallaft), "parallaft-perf-%")
		b.ReportMetric(geomeanPerf(sr, stats.ModeRAFT), "raft-perf-%")
		b.ReportMetric(geomeanEnergy(sr, stats.ModeParallaft), "parallaft-energy-%")
		b.ReportMetric(geomeanEnergy(sr, stats.ModeRAFT), "raft-energy-%")
	}
}

// BenchmarkFig5PerfOverhead regenerates figure 5 (performance overhead of
// Parallaft vs RAFT; paper geomeans 15.9% vs 16.2%).
func BenchmarkFig5PerfOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runSuite(b, true)
		b.ReportMetric(geomeanPerf(sr, stats.ModeParallaft), "parallaft-%")
		b.ReportMetric(geomeanPerf(sr, stats.ModeRAFT), "raft-%")
	}
}

// BenchmarkFig6Breakdown regenerates figure 6 (Parallaft overhead split
// into fork+COW, contention, last-checker sync, runtime work) for the
// memory-bound chase workload, where the components are all visible.
func BenchmarkFig6Breakdown(b *testing.B) {
	r := benchRunner(b)
	w := workload.Get("429.mcf")
	for i := 0; i < b.N; i++ {
		c, err := r.Compare(w, false)
		if err != nil {
			b.Fatal(err)
		}
		fork, cont, sync, rt := c.Breakdown()
		b.ReportMetric(fork, "fork+COW-%")
		b.ReportMetric(cont, "contention-%")
		b.ReportMetric(sync, "last-sync-%")
		b.ReportMetric(rt, "runtime-%")
	}
}

// BenchmarkFig7Energy regenerates figure 7 (energy overhead; paper geomeans
// 44.3% vs 87.8%, with lbm the one case where Parallaft exceeds RAFT).
func BenchmarkFig7Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runSuite(b, true)
		b.ReportMetric(geomeanEnergy(sr, stats.ModeParallaft), "parallaft-%")
		b.ReportMetric(geomeanEnergy(sr, stats.ModeRAFT), "raft-%")
	}
}

// BenchmarkFig8Memory regenerates figure 8 (normalized memory usage; paper
// geomeans 1.033x vs 1.020x).
func BenchmarkFig8Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runSuite(b, true)
		var par, raft []float64
		for _, c := range sr.Comparisons {
			par = append(par, c.MemoryNormalized(stats.ModeParallaft))
			raft = append(raft, c.MemoryNormalized(stats.ModeRAFT))
		}
		b.ReportMetric(stats.Geomean(par), "parallaft-x")
		b.ReportMetric(stats.Geomean(raft), "raft-x")
	}
}

// BenchmarkFig9Sweep regenerates figure 9 (slicing-period sensitivity) on
// gcc/mcf/sjeng analogues and reports each benchmark's sweet spot.
func BenchmarkFig9Sweep(b *testing.B) {
	r := benchRunner(b)
	periods := []float64{400_000, 2_000_000, 8_000_000}
	for i := 0; i < b.N; i++ {
		points, err := r.RunFig9(stats.Fig9Benchmarks, periods)
		if err != nil {
			b.Fatal(err)
		}
		best := map[string]stats.SweepPoint{}
		for _, p := range points {
			if cur, ok := best[p.Benchmark]; !ok || p.Combined < cur.Combined {
				best[p.Benchmark] = p
			}
		}
		for name, p := range best {
			b.ReportMetric(p.PeriodCycles/1e6, "sweet-"+name+"-Mcycles")
		}
	}
}

// BenchmarkFig10FaultInjection regenerates figure 10 (fault-injection
// outcome distribution; paper: 43.3% benign, everything else detected).
func BenchmarkFig10FaultInjection(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.RunFig10([]string{"456.hmmer", "444.namd"}, 2, 0.15)
		if err != nil {
			b.Fatal(err)
		}
		var landed, benign, detected int
		for _, row := range rows {
			if !row.Report.DetectionComplete() {
				b.Fatal("a non-benign fault escaped detection")
			}
			for o, n := range row.Report.Counts {
				switch inject.Outcome(o) {
				case inject.OutcomeBenign:
					benign += n
					landed += n
				case inject.OutcomeDetected, inject.OutcomeException, inject.OutcomeTimeout:
					detected += n
					landed += n
				}
			}
		}
		if landed > 0 {
			b.ReportMetric(float64(benign)/float64(landed)*100, "benign-%")
			b.ReportMetric(float64(detected)/float64(landed)*100, "detected-%")
		}
	}
}

// BenchmarkTable2Guarantees regenerates table 2: Parallaft detects the
// silent post-syscall error; RAFT misses it.
func BenchmarkTable2Guarantees(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		if !res.ParallaftDetectsSilent || res.RAFTDetectsSilent {
			b.Fatal("table-2 guarantee violated")
		}
		b.ReportMetric(boolMetric(res.ParallaftDetectsSilent), "parallaft-detects")
		b.ReportMetric(boolMetric(res.RAFTDetectsSilent), "raft-detects")
	}
}

// BenchmarkStressSyscalls regenerates the §5.7 stress slowdowns (paper:
// getpid 124.5x, 1 MiB /dev/zero reads 18.5x, SIGUSR1 39.8x).
func BenchmarkStressSyscalls(b *testing.B) {
	r := benchRunner(b)
	r.Scale = 0.5
	for i := 0; i < b.N; i++ {
		rows, err := r.RunStress()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.ParallaftX, row.Name+"-x")
		}
	}
}

// BenchmarkIntelPlatform regenerates §5.8: the Intel-like platform with
// 4 KiB pages, instruction slicing and a shared voltage domain (paper:
// Parallaft 26.2%/46.7%, RAFT 12.9%/50.2%).
func BenchmarkIntelPlatform(b *testing.B) {
	r := stats.NewRunner()
	r.MachineCfg = machine.IntelLike
	r.Scale = 0.25
	for i := 0; i < b.N; i++ {
		sr, err := r.RunSuite(benchSubset, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geomeanPerf(sr, stats.ModeParallaft), "parallaft-perf-%")
		b.ReportMetric(geomeanPerf(sr, stats.ModeRAFT), "raft-perf-%")
		b.ReportMetric(geomeanEnergy(sr, stats.ModeParallaft), "parallaft-energy-%")
		b.ReportMetric(geomeanEnergy(sr, stats.ModeRAFT), "raft-energy-%")
	}
}

// --- ablations ------------------------------------------------------------

// BenchmarkAblationFullCompare disables dirty-page tracking and hashes
// every mapped page at every boundary — the cost §4.4's design avoids. The
// victim has a large read-mostly table and a small write buffer, the shape
// where dirty tracking pays off (a workload that rewrites its whole
// footprint every segment would not benefit).
func BenchmarkAblationFullCompare(b *testing.B) {
	prog := lang.MustCompile("readmostly", `
		var table[262144];  // 2 MiB, written once
		var out[512];       // the per-segment dirty set
		var i = 0;
		while (i < 262144) { table[i] = i * 2654435761; i = i + 1; }
		var acc = 0;
		i = 0;
		while (i < 3000000) {
			acc = acc + table[(i * 40503) & 262143];
			out[i & 511] = acc;
			i = i + 1;
		}
		exit(acc & 255);
	`)
	run := func(full bool) *core.RunStats {
		e := newBenchEngine()
		cfg := core.DefaultConfig()
		cfg.CompareFullMemory = full
		rt := core.NewRuntime(e, cfg)
		st, err := rt.Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		if st.Detected != nil {
			b.Fatalf("false positive: %v", st.Detected)
		}
		return st
	}
	for i := 0; i < b.N; i++ {
		dirty := run(false)
		full := run(true)
		b.ReportMetric(float64(dirty.DirtyPagesHashed)/float64(dirty.Slices+1), "dirty-pages/boundary")
		b.ReportMetric(float64(full.DirtyPagesHashed)/float64(full.Slices+1), "full-pages/boundary")
		b.ReportMetric(float64(full.BytesHashed)/float64(dirty.BytesHashed+1), "hash-bytes-ratio")
	}
}

// newBenchEngine builds a fresh engine for direct runtime benches.
func newBenchEngine() *sim.Engine {
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 99)
	l := oskernel.NewLoader(k, m.PageSize, 99)
	e := sim.New(m, k, l)
	e.MaxInstr = 2_000_000_000
	return e
}

// BenchmarkAblationNoSkidBuffer arms the branch counter at the exact target
// instead of undershooting: counter skid then overruns the end point and
// segments must be flagged (§4.2.2, footnote 6 explains why the buffer
// exists). The metric is the overrun rate across segments.
func BenchmarkAblationNoSkidBuffer(b *testing.B) {
	w := workload.Get("458.sjeng")
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.ConfigTweak = func(c *core.Config) { c.SkidBuffer = 0 }
		res, err := r.RunWorkload(w, stats.ModeParallaft)
		if err != nil {
			b.Fatal(err)
		}
		overruns := 0.0
		if res.Detected != nil && res.Detected.Kind == core.ErrExecPointOverrun {
			overruns = 1
		}
		b.ReportMetric(overruns, "overrun-detected")
	}
}

// BenchmarkAblationMigrationPolicy compares oldest-checker migration (the
// paper's choice) with migrating the newest (footnote 11) and with no
// migration at all, on the memory-bound chase workload.
func BenchmarkAblationMigrationPolicy(b *testing.B) {
	w := workload.Get("429.mcf")
	policies := []struct {
		name  string
		tweak func(*core.Config)
	}{
		{"oldest", func(c *core.Config) {}},
		{"newest", func(c *core.Config) { c.MigrateNewest = true }},
		{"none", func(c *core.Config) { c.EnableMigration = false; c.MaxLiveSegments = 24 }},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range policies {
			r := benchRunner(b)
			r.ConfigTweak = pol.tweak
			c, err := r.Compare(w, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(c.PerfOverhead(stats.ModeParallaft), pol.name+"-perf-%")
			b.ReportMetric(c.EnergyOverhead(stats.ModeParallaft), pol.name+"-energy-%")
		}
	}
}

// BenchmarkAblationNoDVFS pins the little cores at maximum frequency,
// quantifying what the pacer saves (§4.5, footnote 10).
func BenchmarkAblationNoDVFS(b *testing.B) {
	w := workload.Get("458.sjeng")
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		paced, err := r.Compare(w, false)
		if err != nil {
			b.Fatal(err)
		}
		r2 := benchRunner(b)
		r2.ConfigTweak = func(c *core.Config) { c.EnableDVFS = false }
		pinned, err := r2.Compare(w, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(paced.EnergyOverhead(stats.ModeParallaft), "dvfs-energy-%")
		b.ReportMetric(pinned.EnergyOverhead(stats.ModeParallaft), "maxfreq-energy-%")
	}
}

// BenchmarkAblationContainment quantifies the syscall-synchronisation cost
// of containing errors inside the sphere of replication — the price §3.4
// cites for not guaranteeing containment. The gcc analogue's file IO makes
// the barriers visible.
func BenchmarkAblationContainment(b *testing.B) {
	w := workload.Get("403.gcc")
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		plain, err := r.Compare(w, false)
		if err != nil {
			b.Fatal(err)
		}
		r2 := benchRunner(b)
		r2.ConfigTweak = func(c *core.Config) { c.ContainSyscalls = true }
		contained, err := r2.Compare(w, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain.PerfOverhead(stats.ModeParallaft), "uncontained-%")
		b.ReportMetric(contained.PerfOverhead(stats.ModeParallaft), "contained-%")
	}
}

// BenchmarkRecoveryOverhead measures what enabling rollback-based recovery
// costs on a clean run (it should be nearly free: arbitration only runs on
// detections).
func BenchmarkRecoveryOverhead(b *testing.B) {
	w := workload.Get("458.sjeng")
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		plain, err := r.Compare(w, false)
		if err != nil {
			b.Fatal(err)
		}
		r2 := benchRunner(b)
		r2.ConfigTweak = func(c *core.Config) { c.EnableRecovery = true }
		rec, err := r2.Compare(w, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain.PerfOverhead(stats.ModeParallaft), "detect-only-%")
		b.ReportMetric(rec.PerfOverhead(stats.ModeParallaft), "with-recovery-%")
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
