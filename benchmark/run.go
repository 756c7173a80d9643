package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A run sets the workload up at least minSetups times and keeps doing so
// until setupSeconds have passed; setup_s is the median, so one slow start
// does not decide the figure. The export workloads' set-up takes over a
// second and gets the minimum; dirty_sweep's takes 40 ms, which three
// samples cannot pin (their median moved by 18 % between two sets of ten
// runs), so it gets about fifty.
const (
	minSetups    = 3
	setupSeconds = 2.0
)

// minReps is the fewest timed reps a run reports on.
const minReps = 3

// measured is everything one untraced run of a workload observed.
type measured struct {
	d        *def
	setupS   []float64
	repS     []float64
	work     work
	latMs    [][]float64 // per timed rep, where the workload measures a latency
	sim      string
	failures []string

	attempted, failed int
}

// runUntraced is the end-to-end measurement: set-up (several times, timed),
// warm-up reps (discarded), then timed reps for at least `seconds`, with
// tracing off throughout. The out-of-region checks run last.
func runUntraced(d *def, seed int64, seconds float64) (*measured, error) {
	m := &measured{d: d}
	var w workload
	for start := time.Now(); len(m.setupS) < minSetups || time.Since(start).Seconds() < setupSeconds; {
		w = nil // let the previous instance go before building the next
		t0 := time.Now()
		var err error
		if w, err = d.setup(seed, fullSize, nil, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", d.name, err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	for i := 0; i < d.warmups; i++ {
		out, err := w.rep(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", d.name, err)
		}
		m.sim = out.sim
	}
	start := time.Now()
	for len(m.repS) < minReps || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		out, err := w.rep(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", d.name, len(m.repS), err)
		}
		m.repS = append(m.repS, time.Since(t0).Seconds())
		m.add(out)
	}
	m.attempted++
	if err := w.verify(); err != nil {
		m.failed++
		m.failures = append(m.failures, err.Error())
	}
	return m, nil
}

// add folds one timed rep in. A speed-only change leaves every simulated
// statistic alone, so every rep of one seed must print the same thing.
func (m *measured) add(out repOut) {
	m.work = out.work
	m.attempted += out.attempted
	m.failed += out.failed
	m.failures = append(m.failures, out.note...)
	if out.latMs != nil {
		m.latMs = append(m.latMs, out.latMs)
	}
	if m.sim != "" && out.sim != m.sim {
		m.failed++
		m.failures = append(m.failures, "simulated output changed between reps of one seed")
	}
	m.sim = out.sim
}

// endToEnd computes the end-to-end metrics. Every workload reports every
// metric: its own in the issue's definition, the others as the same rep
// wall time in that metric's currency (see README, "metric × workload").
//
// Throughput is taken from the fastest timed rep, not the median one. On
// this kind of sandbox other tenants slow whole stretches of a run by
// 10–30 %; the median of a 10 s window then moves by 11–14 % between
// back-to-back runs of the same code, the fastest rep by 3–8 % (README,
// "The fastest rep"). Interference only ever adds time, so the fastest rep
// is the closest a run gets to the code's own cost. A measured latency is
// pooled over the faster half of the reps: pooling keeps the samples many
// (a rep's own median also moves, both ways, with how the two nodes'
// verdicts happen to interleave), and the faster half leaves out the reps
// interference stretched. Over two sets of twelve runs the p50 pooled over
// every rep spread 15.6 % and 15.4 %, over the faster half 5.8 % and 9.1 %,
// beside 5.9 % and 9.4 % for the fastest rep's wall time.
func (m *measured) endToEnd() map[string]float64 {
	wall := slices.Min(m.repS)
	lat := wall * 1000 / m.work.verdicts // mean host time per verdict
	if pool := m.latencyPool(); len(pool) > 0 {
		lat = median(pool)
	}
	return map[string]float64{
		"setup_s":                median(m.setupS),
		"guest_minstr_per_s":     m.work.minstr / wall,
		"trials_per_s":           m.work.runs / wall,
		"packets_per_s":          m.work.verdicts / wall,
		"verdict_latency_p50_ms": lat,
		"peak_rss_mb":            peakRSSMB(),
	}
}

// latencyPool is the latency samples of the faster half of the timed reps.
func (m *measured) latencyPool() []float64 {
	if len(m.latMs) == 0 {
		return nil
	}
	order := make([]int, len(m.repS))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(m.repS[a], m.repS[b]) })
	var pool []float64
	for _, i := range order[:(len(order)+1)/2] {
		pool = append(pool, m.latMs[i]...)
	}
	return pool
}

// peakRSSMB is the process's resident-set high-water mark. Each workload
// runs in a process of its own, so the mark is that workload's.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// report prints what the run saw, for a reader; the driver reads only the
// JSON line that follows.
func (m *measured) report(e2e map[string]float64) {
	q1, q2, q3 := quartiles(m.repS)
	fmt.Printf("%s: %d timed reps, fastest %.4f s, median %.4f s (quartiles %.4f–%.4f), %d set-ups\n",
		m.d.name, len(m.repS), slices.Min(m.repS), q2, q1, q3, len(m.setupS))
	fmt.Print("  rep walls (s):")
	for _, r := range m.repS {
		fmt.Printf(" %.3f", r)
	}
	fmt.Println()
	fmt.Printf("  per rep: %.2f M guest instr, %.0f verdicts, %.0f protected runs\n",
		m.work.minstr, m.work.verdicts, m.work.runs)
	for _, em := range endToEndMetrics {
		own := ""
		if m.d.owns(em.Name) {
			own = "  (own)"
		}
		fmt.Printf("  %-24s %12.4f %s%s\n", em.Name, e2e[em.Name], em.Unit, own)
	}
	if pool := m.latencyPool(); len(pool) > 0 {
		fmt.Printf("  verdict latency over the %d samples of the faster half of the reps:", len(pool))
		for _, p := range []float64{50, 90, 99, 99.9} {
			if v, ok := percentile(pool, p); ok {
				fmt.Printf(" p%g %.3f ms", p, v)
			}
		}
		fmt.Println()
	}
	fmt.Printf("  error_rate %d/%d\n", m.failed, m.attempted)
	for _, f := range m.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}
