package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The reference values are Python's statistics.quantiles(xs, n=4): the
// driver computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{2, 9, 4, 7, 1}, [3]float64{1.5, 4.0, 8.0}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose: 1000..1
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 500, true},
		{90, 900, true},
		{99, 990, true},    // exactly ten beyond
		{99.9, 999, false}, // one beyond
	} {
		got, ok := percentile(samples, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(p%g) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(samples[:15], 50); ok {
		t.Error("p50 of 15 samples has 7 beyond it and must not be reported")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples, no percentile")
	}
}

func TestBoundComparator(t *testing.T) {
	for _, c := range []struct {
		better    string
		base, cur float64
		worse     float64
	}{
		{"lower", 100, 108, 0.08},
		{"lower", 100, 90, -0.10},
		{"higher", 200, 180, 0.10},
		{"higher", 200, 230, -0.15},
	} {
		if got := worseBy(c.better, c.base, c.cur); !near(got, c.worse) {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.better, c.base, c.cur, got, c.worse)
		}
	}
	if !withinBound("higher", 200, 181, 0.10) || withinBound("higher", 200, 179, 0.10) {
		t.Error("a throughput may fall by its bound and no further")
	}
	if !withinBound("lower", 10, 11, 0.10) || withinBound("lower", 10, 11.5, 0.10) {
		t.Error("a latency may rise by its bound and no further")
	}
}

func TestFitPlane(t *testing.T) {
	var x1, x2, ys []float64
	for i := 0; i < 20; i++ {
		a, b := float64(i), float64((i*7)%5)
		x1, x2 = append(x1, a), append(x2, b)
		ys = append(ys, 3+2*a+0.5*b)
	}
	a, b1, b2 := fitPlane(x1, x2, ys)
	if !near(a, 3) || !near(b1, 2) || !near(b2, 0.5) {
		t.Errorf("fitPlane = %v %v %v, want 3 2 0.5", a, b1, b2)
	}
}

// Children overlap one another and one outlives its parent; only the union
// of their intervals, clipped to the parent, comes off the parent's time.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "harness", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "checkfarm", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "checkfarm", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Layer: "checkfarm", Start: 35, End: 38},  // inside 2 and 3
		{ID: 5, Parent: 1, Layer: "checkfarm", Start: 90, End: 130}, // outlives the parent
		{ID: 6, Parent: 2, Layer: "packet", Start: 12, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30 - 8, 3: 30, 4: 3, 5: 40, 6: 8}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byLayer := layerSelf(spans)
	if got := byLayer["checkfarm"]; !near(got, float64(22+30+3+40)/1e9) {
		t.Errorf("checkfarm self = %v", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin(nil, "core", "x")
	sp.end("n", 1)
	if tr.snapshot() != nil {
		t.Error("a nil tracer has no spans")
	}

	tr = newTracer("run-1")
	root := tr.begin(nil, "harness", "rep")
	kid := tr.begin(root, "core", "Run")
	kid.end("segments", 7, "bytes", uint64(9))
	open := tr.begin(root, "core", "unfinished")
	_ = open
	root.end()
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("%d finished spans, want 2 (the unfinished one is left out)", len(got))
	}
	if got[1].Parent != got[0].ID || got[1].Run != "run-1" || got[1].Counts["segments"] != 7 || got[1].Counts["bytes"] != 9 {
		t.Errorf("child span = %+v", got[1])
	}
}

// BENCHMARK.json is written by hand; the program's metric lists must be
// the ones it declares.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(defs) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(doc.Workloads), len(defs))
	}
	for i, w := range doc.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, defs[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEndMetrics[i] {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, got, endToEndMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program", len(doc.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		if got := (metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayerMetrics[i] {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, got, perLayerMetrics[i])
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}
