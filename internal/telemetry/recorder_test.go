package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// count returns how many retained records have the kind.
func count(r *Recorder, kind Kind) int {
	n := 0
	for _, s := range r.Records() {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// TestNilRecorderIsSafe: a nil recorder takes decisions and its JSONL
// reader writes nothing.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(1, Detect, 0, "x")
	if r.Records() != nil || r.Dropped() != 0 {
		t.Error("nil recorder leaked state")
	}
	var buf bytes.Buffer
	if n, err := r.WriteJSONL(&buf); err != nil || n != 0 || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL wrote %d records (%v)", n, err)
	}
}

// TestTraceRecorderNilSafe: a nil recorder takes stage spans and a
// registry, and reads back nothing.
func TestTraceRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(StageSpan{Stage: StageSeal})
	r.SetMetrics(NewRegistry())
	if r.Records() != nil || r.Dropped() != 0 {
		t.Error("nil recorder not inert")
	}
	var buf bytes.Buffer
	if n, err := r.WriteChrome(&buf); err != nil || n != 0 {
		t.Errorf("nil WriteChrome wrote %d spans (%v)", n, err)
	}
}

// TestFlightRecorderNilSafe: the black-box half of a nil recorder — notes,
// frames, SetDir and both dumps — is inert too.
func TestFlightRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Note("evict", "node0 gone")
	r.Frame("send", 'P', 100)
	r.SetDir(t.TempDir())
	var buf bytes.Buffer
	if err := r.Dump(&buf, "test", nil); err != nil || buf.Len() != 0 {
		t.Error("nil Dump wrote output")
	}
	if path, err := r.DumpToDir("x", "test", nil); err != nil || path != "" {
		t.Error("nil DumpToDir wrote output")
	}
}

func TestEmitAndCount(t *testing.T) {
	r := NewRecorder(0)
	r.Emit(10, SegmentStart, 0, "begin")
	r.Emit(20, Syscall, 0, "write")
	r.Emit(30, Syscall, 1, "read %d bytes", 64)
	if got := len(r.Records()); got != 3 {
		t.Errorf("records = %d", got)
	}
	if count(r, Syscall) != 2 {
		t.Errorf("syscall count = %d", count(r, Syscall))
	}
	s := r.Records()[2]
	if s.Detail != "read 64 bytes" || s.Segment != 1 || s.SimNs != 30 {
		t.Errorf("record = %+v", s)
	}
}

func TestRecordsAreCopies(t *testing.T) {
	r := NewRecorder(0)
	r.Emit(1, Detect, 0, "a")
	recs := r.Records()
	recs[0].Detail = "mutated"
	if r.Records()[0].Detail != "a" {
		t.Error("Records returned aliased storage")
	}
}

func TestTraceRecorderLimitAndMetrics(t *testing.T) {
	r := NewRecorder(2)
	reg := NewRegistry()
	r.SetMetrics(reg)
	for i := 0; i < 5; i++ {
		r.Record(StageSpan{TraceID: 1, Stage: StageDispatch, Segment: i})
	}
	if len(r.Records()) != 2 || r.Dropped() != 3 {
		t.Fatalf("records=%d dropped=%d, want 2/3", len(r.Records()), r.Dropped())
	}
	if v := reg.Counter("paft_trace_records_total", "event records retained: decisions, stage spans, frames and notes").Value(); v != 2 {
		t.Errorf("recorded counter = %d, want 2", v)
	}
	if v := reg.Counter("paft_trace_records_dropped_total", "event records discarded by the recorder's record limit").Value(); v != 3 {
		t.Errorf("dropped counter = %d, want 3", v)
	}
}

// TestLimit: decisions count against the same limit as stage spans.
func TestLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Emit(float64(i), Compare, i, "x")
	}
	if got := len(r.Records()); got != 2 {
		t.Errorf("bounded recorder kept %d records", got)
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", r.Dropped())
	}
}

func TestDroppedZeroWhenUnbounded(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 100; i++ {
		r.Emit(float64(i), Compare, i, "x")
	}
	if r.Dropped() != 0 {
		t.Errorf("unbounded recorder dropped %d", r.Dropped())
	}
	var nilR *Recorder
	if nilR.Dropped() != 0 {
		t.Error("nil recorder reported drops")
	}
}

// TestTraceRecorderConcurrentAtLimit hammers every record path from many goroutines
// right at the limit boundary and checks the recorder's books stay
// consistent: every attempt is either retained or dropped, never both,
// never lost. Run under -race this also proves the record paths and the
// readers are safe to interleave.
func TestTraceRecorderConcurrentAtLimit(t *testing.T) {
	const limit, workers, per = 64, 8, 32
	r := NewRecorder(limit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					r.Record(StageSpan{TraceID: uint64(w + 1), Stage: StageUpload, Segment: i})
				case 1:
					r.Emit(float64(i), Queue, i, "w%d", w)
				default:
					r.Frame("send", 'P', i)
				}
				_ = r.Records()
				_ = r.Dropped()
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Records()); got != limit {
		t.Errorf("records = %d, want exactly the limit %d", got, limit)
	}
	if got := uint64(len(r.Records())) + r.Dropped(); got != workers*per {
		t.Errorf("retained+dropped = %d, want %d", got, workers*per)
	}
}

func TestNewTraceIDDeterministicAndNonZero(t *testing.T) {
	a := NewTraceID("victim", 3)
	if b := NewTraceID("victim", 3); a != b {
		t.Fatalf("trace ID not deterministic: %#x vs %#x", a, b)
	}
	if a == 0 {
		t.Fatal("trace ID is zero (reserved for pre-tracing packets)")
	}
	if NewTraceID("victim", 4) == a {
		t.Error("different segments share a trace ID")
	}
	if NewTraceID("other", 3) == a {
		t.Error("different programs share a trace ID")
	}
}

func TestKindHelpIsTotal(t *testing.T) {
	for k, help := range KindHelp {
		if help == "" {
			t.Errorf("kind %q has an empty help string", k)
		}
	}
}

// TestWriteJSONL: one decision round-trips through its JSONL line.
func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(0)
	r.Emit(1.5, Migrate, 3, "core 4 -> 1")
	var buf bytes.Buffer
	if _, err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var d decision
	if err := json.Unmarshal([]byte(line), &d); err != nil {
		t.Fatalf("bad JSONL %q: %v", line, err)
	}
	if d.Kind != Migrate || d.Segment != 3 || d.TimeNs != 1.5 || d.Detail != "core 4 -> 1" {
		t.Errorf("round trip = %+v", d)
	}
}

// TestTraceRecorderWriteJSONL: the JSONL reader renders decisions only,
// in the {"t","kind","segment","detail"} shape; stage spans, notes and
// frames in the same stream are left to the other readers.
func TestTraceRecorderWriteJSONL(t *testing.T) {
	r := NewRecorder(0)
	r.Emit(1.5, Migrate, 3, "core 4 to 1")
	r.Record(StageSpan{TraceID: 7, Stage: StageSeal, Actor: "main", Segment: 3})
	r.Note("no-quorum", "seg 3")
	r.Frame("recv", 'V', 64)
	r.Emit(2, Vote, 3, "unanimous")
	var buf bytes.Buffer
	n, err := r.WriteJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":1.5,"kind":"migrate","segment":3,"detail":"core 4 to 1"}` + "\n" +
		`{"t":2,"kind":"vote","segment":3,"detail":"unanimous"}` + "\n"
	if n != 2 || buf.String() != want {
		t.Errorf("wrote %d:\n%s\nwant 2:\n%s", n, buf.String(), want)
	}
}

func TestWriteJSONLNotesTruncation(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Emit(float64(i), Compare, i, "x")
	}
	var buf bytes.Buffer
	if _, err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // 2 decisions + truncation trailer
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	var trailer decision
	if err := json.Unmarshal([]byte(lines[2]), &trailer); err != nil {
		t.Fatalf("trailer not JSON: %v", err)
	}
	if trailer.Kind != Truncated || !strings.Contains(trailer.Detail, "3 records dropped") || trailer.TimeNs != 1 {
		t.Errorf("trailer = %+v", trailer)
	}

	// A complete trace must NOT grow a trailer.
	c := NewRecorder(10)
	c.Emit(1, Compare, 0, "x")
	buf.Reset()
	if _, err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), string(Truncated)) {
		t.Error("complete trace tagged as truncated")
	}
}

func TestWriteChromeShape(t *testing.T) {
	r := NewRecorder(0)
	// Two actors, two traces; node0's span starts earliest to exercise the
	// epoch scan beyond index 0. The decision and the note are not stages
	// and must stay off the timeline.
	r.Record(StageSpan{TraceID: 1, Stage: StageSeal, Actor: "main", Segment: 0, StartUnixNs: 1000, EndUnixNs: 2000})
	r.Emit(5, Compare, 0, "clean")
	r.Record(StageSpan{TraceID: 1, Stage: StageUpload, Actor: "node0", Segment: 0, StartUnixNs: 500, EndUnixNs: 900, Attempt: 1})
	r.Note("evict", "x")
	r.Record(StageSpan{TraceID: 2, Stage: StageSeal, Actor: "main", Segment: 1, StartUnixNs: 3000, EndUnixNs: 4000})

	var buf bytes.Buffer
	n, err := r.WriteChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("WriteChrome wrote %d spans, want 3", n)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TsUs  float64        `json:"ts"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var meta, complete int
	pids := map[string]int{}
	for _, ev := range out.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			pids[ev.Args["name"].(string)] = ev.PID
		case "X":
			complete++
			if ev.TsUs < 0 {
				t.Errorf("negative ts %v (epoch should be min start)", ev.TsUs)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if meta != 2 || complete != 3 {
		t.Fatalf("meta=%d complete=%d, want 2/3", meta, complete)
	}
	if pids["main"] == pids["node0"] || pids["main"] == 0 || pids["node0"] == 0 {
		t.Errorf("actors must get distinct non-zero pids: %v", pids)
	}
	// Same actor, different traces → different tids (one causal chain per row).
	var mainTids []int
	for _, ev := range out.TraceEvents {
		if ev.Phase == "X" && ev.PID == pids["main"] {
			mainTids = append(mainTids, ev.TID)
		}
	}
	if len(mainTids) != 2 || mainTids[0] == mainTids[1] {
		t.Errorf("main's two traces share a tid: %v", mainTids)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	render := func() string {
		r := NewRecorder(0)
		r.Record(StageSpan{TraceID: 9, Stage: StageDispatch, Actor: "farm", Segment: 2, StartUnixNs: 10, EndUnixNs: 20, Seq: 1})
		r.Record(StageSpan{TraceID: 9, Stage: StageRemoteVerify, Actor: "node1", Segment: 2, StartUnixNs: 30, EndUnixNs: 90, Seq: 1, Attempt: 1})
		var buf bytes.Buffer
		if _, err := r.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("WriteChrome output not deterministic for identical spans")
	}
}

// ringDetails dumps r and returns the Detail of every ring record, oldest
// first.
func ringDetails(t *testing.T, r *Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Dump(&buf, "test", nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got []string
	for _, l := range lines[1:] {
		var s StageSpan
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s.Detail)
	}
	return got
}

// TestFlightRecorderRingOrder: the retained stream is a prefix bounded by
// the limit, the ring the oldest-first window of the most recent RingSize
// records whatever the limit — so the black box still holds the lead-up to
// an anomaly late in a capped run.
func TestFlightRecorderRingOrder(t *testing.T) {
	r := NewRecorder(1)
	r.SetDir(t.TempDir())
	for i := 0; i < RingSize+7; i++ {
		r.Note("note", string(rune('a'+i%26)))
	}
	if len(r.Records()) != 1 || r.Dropped() != RingSize+6 {
		t.Fatalf("retained %d, dropped %d", len(r.Records()), r.Dropped())
	}
	got := ringDetails(t, r)
	if len(got) != RingSize {
		t.Fatalf("ring holds %d, want %d", len(got), RingSize)
	}
	if got[0] != string(rune('a'+7)) || got[RingSize-1] != string(rune('a'+(RingSize+6)%26)) {
		t.Errorf("ring is not the oldest-first window of the last %d: first %q last %q", RingSize, got[0], got[RingSize-1])
	}
}

// TestFlightRecorderDefaultLimit: SetDir arms a ring of exactly RingSize
// records, for an unbounded recorder too; a recorder with nowhere to dump
// keeps no black box.
func TestFlightRecorderDefaultLimit(t *testing.T) {
	r := NewRecorder(0)
	r.Note("note", "before")
	r.SetDir(t.TempDir())
	r.Note("note", "after")
	if got := ringDetails(t, r); strings.Join(got, " ") != "after" {
		t.Errorf("ring = %v, want only the record made after SetDir", got)
	}
	for i := 0; i < RingSize+10; i++ {
		r.Note("note", "x")
	}
	if got := len(ringDetails(t, r)); got != RingSize {
		t.Errorf("ring holds %d, want %d", got, RingSize)
	}
}

func TestFlightRecorderDump(t *testing.T) {
	r := NewRecorder(0)
	r.SetDir(t.TempDir())
	reg := NewRegistry()
	r.SetMetrics(reg)
	reg.Counter("paft_test_things_total", "things").Add(3)

	r.Record(StageSpan{TraceID: 5, Stage: StageUpload, Actor: "node0", Seq: 2, EndUnixNs: 42})
	r.Emit(7, Vote, 4, "no-quorum")
	r.Frame("recv", 'V', 64)
	r.Note("evict", "heartbeat timeout")

	var buf bytes.Buffer
	if err := r.Dump(&buf, "node-eviction", reg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 4 records + >=4 metric lines (records/dropped/dumps + test counter)
	if len(lines) < 9 {
		t.Fatalf("dump has %d lines: %q", len(lines), buf.String())
	}
	var hdr flightHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.FlightDump != "node-eviction" || hdr.Events != 4 {
		t.Errorf("header = %+v", hdr)
	}
	for i, want := range []string{`"stage":"upload"`, `"kind":"vote"`, `"kind":"frame"`, `"kind":"evict"`} {
		if !strings.Contains(lines[1+i], want) {
			t.Errorf("ring record %d = %s, want %s", i, lines[1+i], want)
		}
	}
	if !strings.Contains(buf.String(), "paft_test_things_total") {
		t.Error("dump missing telemetry snapshot")
	}
	if v := reg.Counter("paft_trace_flight_dumps_total",
		"flight-recorder dumps written on eviction, poison exhaustion, no-quorum or SIGQUIT").Value(); v != 1 {
		t.Errorf("dump counter = %d, want 1", v)
	}
}

func TestFlightRecorderDumpToDir(t *testing.T) {
	r := NewRecorder(0)
	r.Note("note", "hello")

	// No dir configured → silently skips.
	if path, err := r.DumpToDir("node0", "evict", nil); err != nil || path != "" {
		t.Fatalf("expected no-op without dir, got %q, %v", path, err)
	}

	dir := t.TempDir()
	r.SetDir(dir)
	p1, err := r.DumpToDir("node0", "evict", nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.DumpToDir("node0", "evict", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Errorf("consecutive dumps share a path: %s", p1)
	}
	if filepath.Base(p1) != "flight-node0-0.jsonl" {
		t.Errorf("dump name = %s", filepath.Base(p1))
	}
	b, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"flight_dump":"evict"`) {
		t.Errorf("dump content: %s", b)
	}
}

// BenchmarkEmitDropped pins the over-limit Emit path: lock-free,
// Sprintf-free, allocation-free (run with -benchmem).
func BenchmarkEmitDropped(b *testing.B) {
	r := NewRecorder(1)
	r.Emit(0, Compare, 0, "fill")
	args := []any{uint64(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(float64(i), Syscall, i, "syscall %d traced", args...)
	}
	if r.Dropped() != uint64(b.N) {
		b.Fatalf("dropped = %d, want %d", r.Dropped(), b.N)
	}
}

// BenchmarkEmitRecorded is the baseline: the under-limit path still
// formats and appends.
func BenchmarkEmitRecorded(b *testing.B) {
	r := NewRecorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(float64(i), Syscall, i, "syscall traced")
	}
}
