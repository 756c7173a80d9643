package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Causal-trace stage names. One sealed segment's journey through the
// checking pipeline is a chain of stage spans sharing one trace ID:
//
//	seal → export → dispatch → upload → remote-verify → verdict-remap → delivery
//
// The seal/export stages run on the recording runtime ("main"), dispatch
// through delivery on the farm dispatcher, upload against one node, and
// remote-verify inside the checkd executor that re-ran the segment. A
// redispatched packet repeats dispatch/upload/remote-verify with a higher
// Attempt, so failovers are visible as forked chains under one trace ID.
const (
	StageSeal         = "seal"          // segment end point + record finalized (main)
	StageExport       = "export"        // packet built and pages interned (main)
	StageDispatch     = "dispatch"      // queue wait: farm Submit → node chosen
	StageUpload       = "upload"        // missing chunks + packet onto one node's wire
	StageRemoteVerify = "remote-verify" // checkd re-execution of the segment
	StageRemap        = "verdict-remap" // node-local seq rewritten to global seq
	StageDelivery     = "delivery"      // resolved → released in submission order
)

// StageSpan is one stage of a sealed segment's causal chain. Start/End are
// host wall-clock (UnixNano) on the recording process's clock — or, for
// remote-verify spans shipped back in the verdict's frame, on the node's clock;
// SimNs carries the correlated simulated-clock timestamp where one exists
// (seal and export happen at a simulated instant, transport stages do not).
type StageSpan struct {
	TraceID uint64 `json:"trace"`
	Stage   string `json:"stage"`
	Actor   string `json:"actor"` // "main", "farm", "node<idx>", "checkd"

	Prog    string `json:"prog,omitempty"`
	Segment int    `json:"segment"`

	StartUnixNs int64   `json:"start_unix_ns"`
	EndUnixNs   int64   `json:"end_unix_ns"`
	SimNs       float64 `json:"sim_ns,omitempty"` // correlated simulated-clock stamp

	Seq     int    `json:"seq,omitempty"`     // farm submission order (delivery order)
	Attempt int    `json:"attempt,omitempty"` // dispatch attempt, 1-based; 0 = not a dispatch stage
	Detail  string `json:"detail,omitempty"`  // chunk counts, byte counts, verdict class
}

// NewTraceID deterministically mints the trace ID for one sealed segment.
// It is a pure function of (program name, segment index) — FNV-1a over
// both — so the recording side, a checkd node, and any post-mortem tool
// agree on the ID without coordination, and trace goldens stay stable
// across runs. The result is never zero: zero is the wire value for "this
// packet predates tracing".
func NewTraceID(prog string, segment int) uint64 {
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	for i := 0; i < len(prog); i++ {
		h ^= uint64(prog[i])
		h *= prime64
	}
	for shift := 0; shift < 64; shift += 8 {
		h ^= uint64(segment>>shift) & 0xff
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// TraceRecorder collects stage spans from every stage of the checking
// pipeline — recording runtime, farm dispatcher, and (merged over the
// transport) remote checkd executors. A nil *TraceRecorder drops
// everything, so instrumented hot paths never need feature checks and the
// disabled path stays allocation-free. Safe for concurrent use.
type TraceRecorder struct {
	mu    sync.Mutex
	spans []StageSpan
	limit int
	drop  uint64

	recorded *Counter // optional paft_trace_* instruments
	dropped  *Counter
}

// NewTraceRecorder returns a recorder bounded to limit spans (0 =
// unbounded). Over-limit spans are counted in Dropped, never recorded.
func NewTraceRecorder(limit int) *TraceRecorder { return &TraceRecorder{limit: limit} }

// SetMetrics registers the paft_trace_* instruments in reg and routes this
// recorder's accounting through them. Nil-safe on both sides.
func (r *TraceRecorder) SetMetrics(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded = reg.Counter("paft_trace_spans_total",
		"causal-trace stage spans recorded across all pipeline stages")
	r.dropped = reg.Counter("paft_trace_spans_dropped_total",
		"causal-trace stage spans discarded by the recorder's span limit")
}

// Record appends one finished stage span; a no-op on a nil recorder.
func (r *TraceRecorder) Record(s StageSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit > 0 && len(r.spans) >= r.limit {
		r.drop++
		r.dropped.Inc()
		return
	}
	r.spans = append(r.spans, s)
	r.recorded.Inc()
}

// Len returns how many spans were recorded.
func (r *TraceRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped returns how many spans the limit discarded.
func (r *TraceRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drop
}

// Spans returns a copy of the recorded spans in record order.
func (r *TraceRecorder) Spans() []StageSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StageSpan(nil), r.spans...)
}

// WriteJSONL renders the spans as JSON Lines in record order — the raw
// form, one span per line, for jq-style post-processing.
func (r *TraceRecorder) WriteJSONL(w io.Writer) error {
	for _, s := range r.Spans() {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event object. We emit complete events
// ("ph":"X") plus process-name metadata, the subset Perfetto and
// chrome://tracing both render.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the recorded spans as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing). Each actor becomes one
// "process" track (sorted by name for determinism), and each trace ID one
// "thread" within it, so a segment's causal chain reads left to right on
// one line while main and every fleet node stay on a shared timeline.
// Timestamps are microseconds relative to the earliest recorded span, so
// merged main+fleet spans correlate as long as the hosts' clocks do.
func (r *TraceRecorder) WriteChrome(w io.Writer) error {
	spans := r.Spans()

	actors := make(map[string]int)
	var names []string
	for _, s := range spans {
		if _, ok := actors[s.Actor]; !ok {
			actors[s.Actor] = 0
			names = append(names, s.Actor)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		actors[n] = i + 1 // pid 0 renders oddly in some viewers
	}

	// Dense per-actor thread ids keyed by trace ID, in first-seen order,
	// so the layout is deterministic for a deterministic span sequence.
	type tidKey struct {
		actor   string
		traceID uint64
	}
	tids := make(map[tidKey]int)
	nextTid := make(map[string]int)

	var epoch int64
	for i, s := range spans {
		if i == 0 || s.StartUnixNs < epoch {
			epoch = s.StartUnixNs
		}
	}

	events := make([]chromeEvent, 0, len(spans)+len(names))
	for _, n := range names {
		events = append(events, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   actors[n],
			Args:  map[string]any{"name": n},
		})
	}
	for _, s := range spans {
		k := tidKey{s.Actor, s.TraceID}
		tid, ok := tids[k]
		if !ok {
			nextTid[s.Actor]++
			tid = nextTid[s.Actor]
			tids[k] = tid
		}
		dur := float64(s.EndUnixNs-s.StartUnixNs) / 1e3
		if dur < 0 {
			dur = 0
		}
		args := map[string]any{
			"trace":   fmt.Sprintf("%#x", s.TraceID),
			"segment": s.Segment,
		}
		if s.Prog != "" {
			args["prog"] = s.Prog
		}
		if s.SimNs != 0 {
			args["sim_ns"] = s.SimNs
		}
		if s.Seq != 0 {
			args["seq"] = s.Seq
		}
		if s.Attempt != 0 {
			args["attempt"] = s.Attempt
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		events = append(events, chromeEvent{
			Name:  s.Stage,
			Cat:   "paft",
			Phase: "X",
			TsUs:  float64(s.StartUnixNs-epoch) / 1e3,
			DurUs: dur,
			PID:   actors[s.Actor],
			TID:   tid,
			Args:  args,
		})
	}

	out := struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}{
		TraceEvents: events,
		Metadata:    map[string]any{"tool": "parallaft", "clock": "host-unix-ns, per-process"},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
