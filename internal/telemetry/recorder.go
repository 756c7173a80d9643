package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a record that is not a pipeline-stage span: one of the
// runtime's decisions below, a transport frame, or a free-form note ("evict",
// "no-quorum", "poison-exhausted", "sigquit", ...).
type Kind string

// Decision kinds emitted by the runtime.
const (
	SegmentStart  Kind = "segment-start"
	SegmentSeal   Kind = "segment-seal"
	Syscall       Kind = "syscall"
	Nondet        Kind = "nondet"
	Signal        Kind = "signal"
	CheckerDone   Kind = "checker-done"
	Compare       Kind = "compare"
	Migrate       Kind = "migrate"
	DVFS          Kind = "dvfs"
	Queue         Kind = "queue"
	Detect        Kind = "detect"
	Arbitrate     Kind = "arbitrate"
	Recover       Kind = "recover"
	Rollback      Kind = "rollback"
	Barrier       Kind = "barrier"
	Stall         Kind = "stall"
	Vote          Kind = "vote"
	ForwardRepair Kind = "forward-repair"
	// Truncated is a synthetic trailer appended when rendering a recorder
	// that hit its record limit, so a cut-off trace is never mistaken for a
	// complete one.
	Truncated Kind = "truncated"
)

// KindHelp describes every decision kind; the telemetry lint test asserts the
// table is total (a new Kind without a help string fails `make check`), so
// downstream dashboards always have human-readable descriptions. A record is
// a decision exactly when its kind is in this table.
var KindHelp = map[Kind]string{
	SegmentStart:  "a new segment began: checkpoint and checker forked",
	SegmentSeal:   "the main reached a segment end; its record is final",
	Syscall:       "the main stopped at a syscall and its record was captured",
	Nondet:        "a nondeterministic instruction's value was recorded",
	Signal:        "a signal was recorded at the main's execution point",
	CheckerDone:   "a checker reached its segment end point",
	Compare:       "an end-of-segment state comparison completed",
	Migrate:       "a checker migrated between cores",
	DVFS:          "the pacer changed the little cores' operating point",
	Queue:         "a checker queued because no core was free",
	Detect:        "a divergence was detected",
	Arbitrate:     "recovery re-executed a segment with a clean referee",
	Recover:       "a checker fault was absorbed without rollback",
	Rollback:      "the main was restored from a verified checkpoint",
	Barrier:       "a containment barrier drained outstanding segments",
	Stall:         "the main stalled on the live-segment bound",
	Vote:          "an NMR majority vote over a segment's replicas concluded",
	ForwardRepair: "the main was repaired forward from an agreed replica state",
	Truncated:     "synthetic trailer: the recorder hit its record limit",
}

// frameKind marks a record of one transport frame crossing the wire.
const frameKind = "frame"

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

// StageSpan is one record of the event stream. A pipeline-stage span (Stage
// set, Kind empty) is one stage of a sealed segment's causal chain: Start/End
// are host wall-clock (UnixNano) on the recording process's clock — or, for
// remote-verify spans shipped back in the verdict's frame, on the node's
// clock — and SimNs carries the correlated simulated-clock timestamp where
// one exists (seal and export happen at a simulated instant, transport stages
// do not). A decision carries its Kind, Segment, SimNs and Detail only; a
// note or a frame carries its Kind, EndUnixNs and Detail.
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
	Detail  string `json:"detail,omitempty"`  // chunk counts, byte counts, verdict class, decision text
	Kind    Kind   `json:"kind,omitempty"`    // decision, note or frame; empty on a stage span
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

// RingSize is how many of the most recent records the black box keeps.
const RingSize = 256

// Recorder is the one event recorder of a run: the runtime's decisions, every
// pipeline stage from seal to delivery (recording runtime, farm dispatcher,
// and — merged over the transport — remote checkd executors), transport
// frames and notes, in one stream. It keeps two views of that stream: the
// retained records, a prefix bounded by the limit, which WriteJSONL and
// WriteChrome read; and, once SetDir gives it somewhere to dump, a ring of
// the last RingSize records of every kind, which Dump reads whatever the
// limit. A nil *Recorder drops everything, so instrumented hot paths never
// need feature checks and the disabled path stays allocation-free. Safe for
// concurrent use.
type Recorder struct {
	mu      sync.Mutex
	records []StageSpan
	limit   int
	ring    []StageSpan // nil until SetDir arms the black box
	ringN   int         // records ever written into the ring
	dir     string
	dumps   int

	recorded, droppedC, dumped *Counter // optional paft_trace_* instruments

	// drop flips once the retained records are full and no ring is armed, so
	// over-limit records take a lock-free, allocation-free fast path: on a
	// long run most records come after the limit, and each then costs one
	// atomic load and one atomic add instead of the mutex and the Sprintf
	// detail formatting.
	drop    atomic.Bool
	dropped atomic.Uint64
}

// NewRecorder returns a recorder retaining at most limit records (0 =
// unbounded). Over-limit records are counted in Dropped, never retained.
func NewRecorder(limit int) *Recorder { return &Recorder{limit: limit} }

// SetMetrics registers the paft_trace_* instruments in reg and routes this
// recorder's accounting through them. Nil-safe on both sides.
func (r *Recorder) SetMetrics(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded = reg.Counter("paft_trace_records_total",
		"event records retained: decisions, stage spans, frames and notes")
	r.droppedC = reg.Counter("paft_trace_records_dropped_total",
		"event records discarded by the recorder's record limit")
	r.dumped = reg.Counter("paft_trace_flight_dumps_total",
		"flight-recorder dumps written on eviction, poison exhaustion, no-quorum or SIGQUIT")
}

// SetDir arms the black box: from now on the ring keeps the last RingSize
// records, and DumpToDir writes into dir. Nil-safe.
func (r *Recorder) SetDir(dir string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dir = dir
	if r.ring == nil {
		r.ring = make([]StageSpan, RingSize)
	}
	r.drop.Store(false)
}

// Emit records one runtime decision at simulated time timeNs; on a nil
// recorder it is a no-op. Once the limit has been reached with no ring to
// feed, Emit only counts the drop: no lock, no detail formatting, no
// allocation.
func (r *Recorder) Emit(timeNs float64, kind Kind, segment int, format string, args ...any) {
	if r == nil {
		return
	}
	if r.drop.Load() {
		r.countDrop()
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	r.add(StageSpan{Kind: kind, Segment: segment, SimNs: timeNs, Detail: detail})
}

// Record appends one finished stage span; a no-op on a nil recorder.
func (r *Recorder) Record(s StageSpan) {
	if r == nil {
		return
	}
	if r.drop.Load() {
		r.countDrop()
		return
	}
	r.add(s)
}

// Note records a free-form event worth remembering (kind examples: "evict",
// "no-quorum", "poison-exhausted", "sigquit"). Nil-safe.
func (r *Recorder) Note(kind, detail string) {
	if r == nil {
		return
	}
	r.Record(StageSpan{Kind: Kind(kind), EndUnixNs: time.Now().UnixNano(), Detail: detail})
}

// Frame records one transport frame (direction + type + length). Nil-safe.
func (r *Recorder) Frame(dir string, typ byte, n int) {
	if r == nil {
		return
	}
	if r.drop.Load() {
		r.countDrop()
		return
	}
	r.add(StageSpan{Kind: frameKind, EndUnixNs: time.Now().UnixNano(),
		Detail: fmt.Sprintf("%s %c %dB", dir, typ, n)})
}

func (r *Recorder) countDrop() {
	r.dropped.Add(1)
	r.droppedC.Inc()
}

func (r *Recorder) add(s StageSpan) {
	r.mu.Lock()
	if r.ring != nil {
		r.ring[r.ringN%RingSize] = s
		r.ringN++
	}
	kept := r.limit <= 0 || len(r.records) < r.limit
	if kept {
		r.records = append(r.records, s)
		if r.limit > 0 && len(r.records) >= r.limit && r.ring == nil {
			r.drop.Store(true)
		}
	}
	recorded, droppedC := r.recorded, r.droppedC
	r.mu.Unlock()
	if kept {
		recorded.Inc()
		return
	}
	r.dropped.Add(1)
	droppedC.Inc()
}

// Records returns a copy of the retained records in record order.
func (r *Recorder) Records() []StageSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StageSpan(nil), r.records...)
}

// Dropped returns how many records the limit discarded. A nonzero value
// means the retained stream is a prefix of the run, not the whole run.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}
