// Package telemetry is the unified observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms — all safe
// for concurrent use and cheap enough for hot paths) plus span-based
// lifecycle tracing for segment lifecycles.
//
// Telemetry is strictly observation-only: recording a metric or a span
// never consumes simulated time and never changes a verdict, a table, or a
// wire byte. Instruments are nil-safe throughout — a nil *Registry hands
// out nil instruments, and every method on a nil instrument is a no-op —
// so instrumented hot paths never need feature checks.
//
// Metric names follow `paft_<subsystem>_<quantity>[_<unit>]` with the usual
// Prometheus conventions: monotone counters end in `_total`, histograms
// name their unit (`_bytes`, `_seconds`, `_simns`), gauges are bare
// quantities. `_simns` marks simulated nanoseconds (deterministic for a
// fixed workload) as opposed to host wall time. Every instrument carries a
// non-empty help string and a unique name — the registry enforces both at
// registration time, and the lint test in this package re-asserts it over
// the fully-instrumented stack.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds a process's (or subsystem's) instruments. The zero value
// is not usable; call NewRegistry. A nil *Registry is a valid "telemetry
// off" value: it returns nil instruments whose methods are no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// metricType discriminates the instrument kinds.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// metric is one registered instrument. Counters and gauges live directly in
// the atomic fields; histograms hang a bucket block off hist.
type metric struct {
	name string
	typ  metricType
	help string

	count atomic.Uint64 // counter value; histogram observation count
	bits  atomic.Uint64 // gauge value / histogram sum, as math.Float64bits

	hist *histogramState
}

type histogramState struct {
	bounds  []float64 // upper bounds, ascending; implicit +Inf last
	buckets []atomic.Uint64
}

// register returns the instrument named name, creating it on first use.
// Re-registering the same name is allowed — instruments are shared — but
// only with an identical type, help string, and (for histograms) bucket
// layout; any mismatch panics, because two call sites disagreeing about a
// metric is a programming error worth failing loudly on. An empty name or
// help string panics for the same reason: the exposition contract requires
// both.
func (r *Registry) register(name string, typ metricType, help string, bounds []float64) *metric {
	if name == "" {
		panic("telemetry: metric with empty name")
	}
	if help == "" {
		panic(fmt.Sprintf("telemetry: metric %s has an empty help string", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.typ != typ {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s, was %s", name, typ, m.typ))
		}
		if m.help != help {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with different help", name))
		}
		if typ == typeHistogram && !equalBounds(m.hist.bounds, bounds) {
			panic(fmt.Sprintf("telemetry: histogram %s re-registered with different buckets", name))
		}
		return m
	}
	m := &metric{name: name, typ: typ, help: help}
	if typ == typeHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %s has no buckets", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly ascending", name))
			}
		}
		m.hist = &histogramState{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1), // +1 for +Inf
		}
	}
	r.metrics[name] = m
	return m
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotone event counter.
type Counter struct{ m *metric }

// Counter returns the counter named name, registering it on first use.
// On a nil registry it returns a nil-safe no-op counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{m: r.register(name, typeCounter, help, nil)}
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n events to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.m.count.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.m.count.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ m *metric }

// Gauge returns the gauge named name, registering it on first use. On a
// nil registry it returns a nil-safe no-op gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{m: r.register(name, typeGauge, help, nil)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.m.bits.Store(math.Float64bits(v))
}

// Add adds delta (which may be negative) to the gauge, atomically.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.m.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.m.bits.Load())
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. Observations
// are lock-free.
type Histogram struct{ m *metric }

// Histogram returns the histogram named name with the given upper bounds,
// registering it on first use. On a nil registry it returns a nil-safe
// no-op histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{m: r.register(name, typeHistogram, help, bounds)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	hs := h.m.hist
	// Bucket counts are stored non-cumulatively so an observation touches
	// exactly one slot; the snapshot cumulates for exposition.
	i := sort.SearchFloat64s(hs.bounds, v) // first bound >= v
	hs.buckets[i].Add(1)
	h.m.count.Add(1)
	for {
		old := h.m.bits.Load()
		sum := math.Float64frombits(old) + v
		if h.m.bits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns how many samples the histogram has absorbed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.m.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.m.bits.Load())
}

// ExpBuckets builds count upper bounds starting at start, each factor times
// the previous — the standard shape for byte sizes and latencies.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	b := make([]float64, count)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}
