package telemetry

import (
	"math"
	"sort"
)

// BucketSnapshot is one cumulative histogram bucket: the count of samples
// at or below UpperBound. The +Inf bucket is omitted from snapshots (its
// cumulative count equals Count).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MetricSnapshot is one instrument's state at snapshot time.
type MetricSnapshot struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Help string `json:"help"`

	// Counter value (integral) or gauge value, depending on Type.
	Value float64 `json:"value,omitempty"`

	// Histogram fields.
	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot returns every registered instrument sorted by name, so the
// result is deterministic for a deterministic sequence of recordings —
// this is what the golden telemetry test pins. A nil registry snapshots to
// nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		metrics = append(metrics, m)
	}
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })

	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Type: m.typ.String(), Help: m.help}
		switch m.typ {
		case typeCounter:
			s.Value = float64(m.count.Load())
		case typeGauge:
			s.Value = math.Float64frombits(m.bits.Load())
		case typeHistogram:
			s.Count = m.count.Load()
			s.Sum = math.Float64frombits(m.bits.Load())
			s.Buckets = make([]BucketSnapshot, len(m.hist.bounds))
			cum := uint64(0)
			for i, ub := range m.hist.bounds {
				cum += m.hist.buckets[i].Load()
				s.Buckets[i] = BucketSnapshot{UpperBound: ub, Count: cum}
			}
		}
		out = append(out, s)
	}
	return out
}
