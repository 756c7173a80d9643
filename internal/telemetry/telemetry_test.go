package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("paft_test_events_total", "test events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("paft_test_depth", "test depth")
	g.Set(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %v, want 1", got)
	}
}

func TestRegisterIsGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("paft_test_shared_total", "shared")
	b := r.Counter("paft_test_shared_total", "shared")
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 2 {
		t.Errorf("same-name counters not shared: %d, %d", a.Value(), b.Value())
	}
}

func TestRegisterPanicsOnMismatch(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"empty help", func(r *Registry) { r.Counter("paft_x_total", "") }},
		{"empty name", func(r *Registry) { r.Counter("", "help") }},
		{"type mismatch", func(r *Registry) {
			r.Counter("paft_x_total", "help")
			r.Gauge("paft_x_total", "help")
		}},
		{"help mismatch", func(r *Registry) {
			r.Counter("paft_x_total", "help")
			r.Counter("paft_x_total", "other help")
		}},
		{"bucket mismatch", func(r *Registry) {
			r.Histogram("paft_x", "help", []float64{1, 2})
			r.Histogram("paft_x", "help", []float64{1, 3})
		}},
		{"unsorted buckets", func(r *Registry) { r.Histogram("paft_x", "help", []float64{2, 1}) }},
		{"no buckets", func(r *Registry) { r.Histogram("paft_x", "help", nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("paft_test_bytes", "test sizes", []float64{10, 100, 1000})
	for _, v := range []float64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 5122 {
		t.Errorf("sum = %v, want 5122", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	// Cumulative: <=10 holds {1,10}; <=100 adds {11,100}; <=1000 adds none.
	want := []BucketSnapshot{{10, 2}, {100, 4}, {1000, 4}}
	for i, b := range snap[0].Buckets {
		if b != want[i] {
			t.Errorf("bucket[%d] = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "y")
	g := r.Gauge("x", "y")
	h := r.Histogram("x", "y", []float64{1})
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments recorded values")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	var sr *SpanRecorder
	sr.Record(Span{})
	if sr.Len() != 0 || sr.Spans() != nil || sr.Dropped() != 0 {
		t.Error("nil span recorder recorded")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("paft_test_total", "concurrent counter")
	g := r.Gauge("paft_test_gauge", "concurrent gauge")
	h := r.Histogram("paft_test_hist", "concurrent histogram", ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j % 300))
			}
		}()
	}
	wg.Wait()
	if c.Value() != goroutines*per {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*per)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %v, want 0", g.Value())
	}
	if h.Count() != goroutines*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*per)
	}
}

// TestSpanRecorderConcurrentAtLimit hammers Record across goroutines with
// the limit set to land mid-stream: exactly limit spans are kept and every
// overflow is accounted in Dropped, with no double counting under -race.
func TestSpanRecorderConcurrentAtLimit(t *testing.T) {
	const limit, goroutines, per = 64, 8, 32
	r := NewSpanRecorder(limit)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r.Record(Span{Segment: i*per + j})
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != limit {
		t.Errorf("Len = %d, want the limit %d", r.Len(), limit)
	}
	if got := r.Len() + int(r.Dropped()); got != goroutines*per {
		t.Errorf("kept+dropped = %d, want %d", got, goroutines*per)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("paft_b_total", "b")
	r.Counter("paft_a_total", "a")
	r.Gauge("paft_c", "c")
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	want := []string{"paft_a_total", "paft_b_total", "paft_c"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v, want %v", names, want)
		}
	}

	one, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if two, _ := json.Marshal(r.Snapshot()); !bytes.Equal(one, two) {
		t.Error("snapshot not deterministic across calls")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("paft_test_events_total", "how many events").Add(7)
	r.Gauge("paft_test_depth", "queue depth").Set(2.5)
	h := r.Histogram("paft_test_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP paft_test_events_total how many events",
		"# TYPE paft_test_events_total counter",
		"paft_test_events_total 7",
		"paft_test_depth 2.5",
		"# TYPE paft_test_latency_seconds histogram",
		`paft_test_latency_seconds_bucket{le="0.1"} 1`,
		`paft_test_latency_seconds_bucket{le="1"} 1`,
		`paft_test_latency_seconds_bucket{le="+Inf"} 2`,
		"paft_test_latency_seconds_sum 3.05",
		"paft_test_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 4, 4)
	want := []float64{1, 4, 16, 64}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
}

func TestSpanRecorder(t *testing.T) {
	r := NewSpanRecorder(2)
	r.Record(Span{Segment: 0, Outcome: OutcomeRetired, ForkNs: 1, EndNs: 10})
	r.Record(Span{Segment: 1, Outcome: OutcomeRollback, ForkNs: 5, EndNs: 20})
	r.Record(Span{Segment: 2, Outcome: OutcomeRetired})
	if r.Len() != 2 || r.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", r.Len(), r.Dropped())
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Segment != 1 || s.Outcome != OutcomeRollback {
		t.Errorf("span = %+v", s)
	}
}
