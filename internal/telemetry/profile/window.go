package profile

import (
	"encoding/json"
	"io"

	"parallaft/internal/telemetry"
)

// DefaultWindowLimit bounds the window ring when NewWindowSampler is given
// a non-positive limit.
const DefaultWindowLimit = 512

// Window is one fixed sim-clock interval's view of the registry: counter
// deltas, gauge values, and histogram count/sum deltas accumulated during
// [StartSimNs, EndSimNs).
type Window struct {
	StartSimNs float64            `json:"start_simns"`
	EndSimNs   float64            `json:"end_simns"`
	Metrics    map[string]float64 `json:"metrics"`
}

// WindowSampler turns end-of-run metric totals into a time series: driven
// with the simulated clock, it snapshots a registry every IntervalNs of
// simulated time and keeps the per-window deltas in a bounded ring —
// rates and utilization trends instead of one final number.
//
// Observation-only and deterministic: windows close at fixed simulated
// instants, so a deterministic run yields a deterministic series. Not safe
// for concurrent use; drive it from the simulation loop.
type WindowSampler struct {
	reg      *telemetry.Registry
	interval float64
	limit    int

	next    float64
	started bool
	prev    map[string]float64
	windows []Window
	dropped int
}

// NewWindowSampler samples reg every intervalNs of simulated time, keeping
// the most recent limit windows (<= 0 selects DefaultWindowLimit).
func NewWindowSampler(reg *telemetry.Registry, intervalNs float64, limit int) *WindowSampler {
	if limit <= 0 {
		limit = DefaultWindowLimit
	}
	if intervalNs <= 0 {
		intervalNs = 1e6 // 1 simulated ms
	}
	return &WindowSampler{reg: reg, interval: intervalNs, limit: limit}
}

// Tick advances the sampler to the simulated instant nowNs, closing any
// windows that ended at or before it. Cheap when no window boundary has
// been crossed (one compare); nil-safe.
func (ws *WindowSampler) Tick(nowNs float64) {
	if ws == nil {
		return
	}
	if !ws.started {
		ws.started = true
		ws.next = ws.interval
		ws.prev = ws.values()
	}
	for nowNs >= ws.next {
		ws.close(ws.next)
		ws.next += ws.interval
	}
}

// Flush closes one final partial window ending at nowNs, so the tail of a
// run is not lost. Call once, at the end.
func (ws *WindowSampler) Flush(nowNs float64) {
	if ws == nil || !ws.started || nowNs <= ws.next-ws.interval {
		return
	}
	ws.close(nowNs)
	ws.next += ws.interval
}

// values flattens the registry: counters by value, gauges by value,
// histograms as <name>_count / <name>_sum.
func (ws *WindowSampler) values() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ws.reg.Snapshot() {
		switch m.Type {
		case "counter", "gauge":
			out[m.Name] = m.Value
		case "histogram":
			out[m.Name+"_count"] = float64(m.Count)
			out[m.Name+"_sum"] = m.Sum
		}
	}
	return out
}

// close seals the window ending at endNs.
func (ws *WindowSampler) close(endNs float64) {
	cur := ws.values()
	w := Window{StartSimNs: endNs - ws.interval, EndSimNs: endNs, Metrics: make(map[string]float64)}
	for name, v := range cur {
		prev, had := ws.prev[name]
		// Counters and histogram components are monotone: report the delta.
		// Gauges report their closing value. A metric first seen mid-run
		// deltas from zero.
		if isMonotone(name) {
			if d := v - prev; d != 0 || had {
				w.Metrics[name] = d
			}
		} else {
			w.Metrics[name] = v
		}
	}
	ws.prev = cur
	ws.windows = append(ws.windows, w)
	if len(ws.windows) > ws.limit {
		drop := len(ws.windows) - ws.limit
		ws.windows = append(ws.windows[:0], ws.windows[drop:]...)
		ws.dropped += drop
	}
}

// isMonotone reports whether a flattened metric name holds a monotone
// value (counter or histogram component) rather than a gauge level.
func isMonotone(name string) bool {
	return hasSuffix(name, "_total") || hasSuffix(name, "_count") || hasSuffix(name, "_sum")
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// Windows returns the retained windows, oldest first.
func (ws *WindowSampler) Windows() []Window {
	if ws == nil {
		return nil
	}
	return ws.windows
}

// Dropped returns how many old windows the bounded ring discarded.
func (ws *WindowSampler) Dropped() int {
	if ws == nil {
		return 0
	}
	return ws.dropped
}

// WriteJSONL writes one JSON object per retained window, oldest first.
// Deterministic: encoding/json sorts the metric map keys.
func (ws *WindowSampler) WriteJSONL(w io.Writer) error {
	if ws == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, win := range ws.windows {
		if err := enc.Encode(win); err != nil {
			return err
		}
	}
	return nil
}
