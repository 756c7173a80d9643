package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one bracketed call from the harness into a layer. Start and End
// are nanoseconds since the tracer was made; Parent is the span that
// caused it (0 = none); every span of one workload run carries its Run id.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    string             `json:"run"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until flush. A nil tracer records nothing,
// so the untraced reps run the same harness code with tracing off.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// open is a span that has begun and not yet ended.
type open struct {
	t  *tracer
	id int
}

// begin opens a span under parent (nil = top level).
func (t *tracer) begin(parent *open, layer, name string) *open {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Run: t.run, Layer: layer, Name: name, Start: now, End: -1}
	if parent != nil {
		s.Parent = parent.id
	}
	t.spans = append(t.spans, s)
	return &open{t: t, id: s.ID}
}

// end closes the span; counts come as name, value pairs measured at the
// same boundary the span brackets.
func (o *open) end(counts ...any) {
	if o == nil {
		return
	}
	now := time.Since(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	s := &o.t.spans[o.id-1]
	s.End = now
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]float64{}
		}
		s.Counts[counts[i].(string)] = toFloat(counts[i+1])
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("trace: unsupported count type %T", v))
}

// snapshot returns the finished spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]. The intervals may overlap and may reach outside the clip.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, edge := int64(0), lo
	for _, c := range iv {
		from, to := max(c[0], edge), min(c[1], hi)
		if to > from {
			total += to - from
			edge = to
		}
	}
	return total
}

// selfTimes gives each span's duration minus the part of that interval its
// child spans cover. Children may overlap one another (packets in flight
// together) and may outlive the parent; only the union of their intervals,
// clipped to the parent, is subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// layerSelf sums self time per layer, in seconds. Spans of one layer that
// run at once (packets in flight) each count in full: the sum is time spent
// waiting on the layer, which can exceed the wall time.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e9
	}
	return out
}

// layerCovered is, per layer, the wall time during which at least one of
// the layer's spans was open, in seconds.
func layerCovered(spans []span, lo, hi int64) map[string]float64 {
	byLayer := map[string][][2]int64{}
	for _, s := range spans {
		byLayer[s.Layer] = append(byLayer[s.Layer], [2]int64{s.Start, s.End})
	}
	out := map[string]float64{}
	for l, iv := range byLayer {
		out[l] = float64(covered(iv, lo, hi)) / 1e9
	}
	return out
}
