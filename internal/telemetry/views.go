package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The readers of a Recorder's stream. Each one selects the records it is
// about: WriteJSONL the decisions, WriteChrome the pipeline stages, Dump the
// black-box ring of every kind.

// decision is a decision record's JSON Lines shape.
type decision struct {
	TimeNs  float64 `json:"t"`
	Kind    Kind    `json:"kind"`
	Segment int     `json:"segment,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// WriteJSONL renders the retained decisions as JSON Lines and returns how
// many it wrote. A recorder that dropped records gets a trailing Truncated
// line noting how many, so downstream tooling can distinguish a short run
// from a capped trace.
func (r *Recorder) WriteJSONL(w io.Writer) (int, error) {
	var out []decision
	for _, s := range r.Records() {
		if _, ok := KindHelp[s.Kind]; ok {
			out = append(out, decision{TimeNs: s.SimNs, Kind: s.Kind, Segment: s.Segment, Detail: s.Detail})
		}
	}
	n := len(out)
	if d := r.Dropped(); d > 0 {
		last := 0.0
		if n > 0 {
			last = out[n-1].TimeNs
		}
		out = append(out, decision{
			TimeNs: last,
			Kind:   Truncated,
			Detail: fmt.Sprintf("%d records dropped after the %d-record limit", d, r.limit),
		})
	}
	for _, e := range out {
		b, err := json.Marshal(e)
		if err != nil {
			return n, err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return n, err
		}
	}
	return n, nil
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

// WriteChrome renders the retained stage spans as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing) and returns how many it wrote.
// Each actor becomes one "process" track (sorted by name for determinism),
// and each trace ID one "thread" within it, so a segment's causal chain reads
// left to right on one line while main and every fleet node stay on a shared
// timeline. Timestamps are microseconds relative to the earliest recorded
// span, so merged main+fleet spans correlate as long as the hosts' clocks do.
func (r *Recorder) WriteChrome(w io.Writer) (int, error) {
	var spans []StageSpan
	for _, s := range r.Records() {
		if s.Kind == "" {
			spans = append(spans, s)
		}
	}

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
	return len(spans), enc.Encode(out)
}

// flightHeader is the first line of a dump.
type flightHeader struct {
	FlightDump string `json:"flight_dump"` // reason
	WallUnixNs int64  `json:"wall_unix_ns"`
	Events     int    `json:"events"`
}

// Dump writes the black box as JSONL: a header line with the reason, the
// ring's records oldest-first, then — when reg is non-nil — one line per
// telemetry instrument snapshot. Nil-safe (a nil recorder writes nothing).
func (r *Recorder) Dump(w io.Writer, reason string, reg *Registry) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var ring []StageSpan
	if r.ringN <= RingSize {
		ring = append(ring, r.ring[:r.ringN]...)
	} else {
		next := r.ringN % RingSize
		ring = append(append(ring, r.ring[next:]...), r.ring[:next]...)
	}
	r.dumps++
	dumped := r.dumped
	r.mu.Unlock()
	dumped.Inc()

	enc := json.NewEncoder(w)
	if err := enc.Encode(flightHeader{
		FlightDump: reason,
		WallUnixNs: time.Now().UnixNano(),
		Events:     len(ring),
	}); err != nil {
		return err
	}
	for _, s := range ring {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, m := range reg.Snapshot() {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}

// DumpToDir writes a dump file named "flight-<slug>-<seq>.jsonl" into the
// directory set by SetDir and returns its path. With no directory
// configured (or a nil recorder) it records nothing and returns "".
func (r *Recorder) DumpToDir(slug, reason string, reg *Registry) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	dir := r.dir
	seq := r.dumps
	r.mu.Unlock()
	if dir == "" {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%s-%d.jsonl", slug, seq))
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.Dump(file, reason, reg); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}
