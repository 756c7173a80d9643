package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// tracedReps is how many reps run with the span recorder on; the time
// table is the last rep's.
const tracedReps = 3

// tracedRun is what one traced run of a workload observed: a few untraced
// reps for the comparison, the reps with the harness's span recorder on,
// and the layer probes.
type tracedRun struct {
	d         *def
	untracedS []float64
	tracedS   []float64
	out       repOut // the last traced rep's, for its exact counts
	spans     []span
	spanFile  string
	layer     map[string]float64
	failures  []string

	attempted, failed int
}

// runTraced measures the per-layer metrics. Untraced reps get a third of
// the run's seconds, to have a fastest rep to hold the traced ones against.
func runTraced(d *def, seed int64, seconds float64) (*tracedRun, error) {
	t := &tracedRun{d: d}
	tr := newTracer(fmt.Sprintf("%s-seed%d", d.name, seed))

	sp := tr.begin(nil, "harness", "setup")
	w, err := d.setup(seed, fullSize, tr, sp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", d.name, err)
	}
	sp.end()

	var sim string
	for i := 0; i < d.warmups; i++ {
		if _, err := w.rep(nil, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", d.name, err)
		}
	}
	start := time.Now()
	for len(t.untracedS) < minReps || time.Since(start).Seconds() < seconds/3 {
		t0 := time.Now()
		out, err := w.rep(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced rep: %w", d.name, err)
		}
		t.untracedS = append(t.untracedS, time.Since(t0).Seconds())
		sim = out.sim
	}

	for i := 0; i < tracedReps; i++ {
		sp = tr.begin(nil, "harness", "rep")
		t0 := time.Now()
		t.out, err = w.rep(tr, sp)
		if err != nil {
			return nil, fmt.Errorf("%s: traced rep: %w", d.name, err)
		}
		t.tracedS = append(t.tracedS, time.Since(t0).Seconds())
		sp.end()
		t.attempted += t.out.attempted
		t.failed += t.out.failed
		t.failures = append(t.failures, t.out.note...)
		if t.out.sim != sim {
			t.failed++
			t.failures = append(t.failures, "the traced rep's simulated output differs from the untraced reps'")
		}
	}

	if t.layer, err = runProbes(seed); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for _, spec := range perLayerMetrics {
		if _, ok := t.layer[spec.Name]; !ok && spec.Name != "trace_overhead_ratio" {
			return nil, fmt.Errorf("layer probes: no probe measured %s", spec.Name)
		}
	}
	// Fastest against fastest, the estimator the end-to-end metrics use.
	t.layer["trace_overhead_ratio"] = slices.Min(t.tracedS) / slices.Min(t.untracedS)

	t.spans = tr.snapshot()
	t.spanFile = filepath.Join(benchDir(), "out", "trace-"+d.name+".jsonl")
	if err := tr.flush(t.spanFile); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	t.report()
	return t, nil
}

func (t *tracedRun) result() result {
	return result{Correct: t.failed == 0, Attempted: max(1, t.attempted), Failed: t.failed,
		Metrics: metricValues(perLayerMetrics, t.layer)}
}

// report prints the per-layer metrics and the "where host time goes"
// table of the traced rep.
func (t *tracedRun) report() {
	fmt.Printf("%s: fastest traced rep %.4f s of %d against fastest untraced %.4f s of %d; %d spans in %s\n",
		t.d.name, slices.Min(t.tracedS), len(t.tracedS), slices.Min(t.untracedS), len(t.untracedS), len(t.spans), t.spanFile)
	for _, f := range t.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	fmt.Println("per-layer metrics:")
	for _, s := range perLayerMetrics {
		fmt.Printf("  %-34s %14.4f %s\n", s.Name, t.layer[s.Name], s.Unit)
	}
	t.whereTimeGoes()
}

// whereTimeGoes splits the traced rep's wall time. The first block is
// measured: each layer's span self time (its spans minus what their
// children cover) under the rep span. The second block is estimated: the
// layers inside Runtime.Run and the checker cannot be bracketed from the
// harness, so their time is the probe's rate times the exact count the rep
// reported. The remainder is shown, not hidden.
func (t *tracedRun) whereTimeGoes() {
	var rep span // the last one
	for _, s := range t.spans {
		if s.Layer == "harness" && s.Name == "rep" {
			rep = s
		}
	}
	var calls []span // the rep's direct children: one per call into a layer
	for _, s := range t.spans {
		if s.Parent == rep.ID {
			calls = append(calls, s)
		}
	}
	wall := float64(rep.End-rep.Start) / 1e9
	fmt.Printf("where host time goes: %s traced rep, %.4f s\n", t.d.name, wall)
	fmt.Println("  measured, by layer: wall time with a span of the layer open (and the spans' summed time where they overlap)")
	busy := layerCovered(calls, rep.Start, rep.End)
	summed := layerSelf(calls)
	count := map[string]int{}
	for _, s := range calls {
		count[s.Layer]++
	}
	layers := make([]string, 0, len(busy))
	for l := range busy {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return busy[layers[i]] > busy[layers[j]] })
	for _, l := range layers {
		fmt.Printf("    %-28s %9.4f s  %5.1f%%  (%d spans", l, busy[l], 100*busy[l]/wall, count[l])
		if summed[l] > 1.01*busy[l] {
			fmt.Printf(", %.4f s summed: %.1f open at once", summed[l], summed[l]/busy[l])
		}
		fmt.Println(")")
	}
	harness := float64(selfTimes(append(calls, rep))[rep.ID]) / 1e9
	fmt.Printf("    %-28s %9.4f s  %5.1f%%  (the rep span's self time)\n", "harness", harness, 100*harness/wall)

	c := t.out.counts
	rows := []struct {
		name string
		s    float64
		how  string
	}{
		{"proc+cache+mem loads", c.interpMinstr / t.layer["proc.dispatch_minstr_per_s"],
			fmt.Sprintf("%.1f M instr ÷ proc.dispatch_minstr_per_s", c.interpMinstr)},
		{"mem copy-on-write", c.cowCopies * t.layer["mem.store_cow_us"] / 1e6,
			fmt.Sprintf("%.0f copies × mem.store_cow_us", c.cowCopies)},
		{"hashx", c.hashedBytes / 1e9 / t.layer["hashx.page_gbps"],
			fmt.Sprintf("%.1f MB ÷ hashx.page_gbps", c.hashedBytes/1e6)},
		{"checkd per-packet rebuild", c.packets * t.layer["checkd.fixed_us_per_packet"] / 1e6,
			fmt.Sprintf("%.0f packets × checkd.fixed_us_per_packet", c.packets)},
	}
	// A workload that keeps two threads busy has two CPU seconds per second.
	cpu := wall * float64(t.d.threads)
	fmt.Printf("  estimated inside those, probe rate × exact count, of %.4f CPU s on %d busy thread(s):\n", cpu, t.d.threads)
	rest := cpu
	for _, r := range rows {
		if r.s == 0 {
			continue
		}
		fmt.Printf("    %-28s %9.4f s  %5.1f%%  (%s)\n", r.name, r.s, 100*r.s/cpu, r.how)
		rest -= r.s
	}
	fmt.Printf("    %-28s %9.4f s  %5.1f%%\n", "not explained by the above", rest, 100*rest/cpu)
}
