package core

import (
	"strings"
	"testing"

	"parallaft/internal/proc"
	"parallaft/internal/telemetry"
)

// countKind returns how many retained records of rec have the kind.
func countKind(rec *telemetry.Recorder, kind telemetry.Kind) int {
	n := 0
	for _, s := range rec.Records() {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// TestTraceStreamCoversTheRun: a traced protected run emits the lifecycle
// events in a causally sensible shape.
func TestTraceStreamCoversTheRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 70_000
	rec := telemetry.NewRecorder(0)
	cfg.Trace = rec

	e := newTestEngine(7)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(testProgram(30_000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}

	starts := countKind(rec, telemetry.SegmentStart)
	seals := countKind(rec, telemetry.SegmentSeal)
	compares := countKind(rec, telemetry.Compare)
	if starts == 0 || seals == 0 || compares == 0 {
		t.Fatalf("missing lifecycle events: start=%d seal=%d compare=%d", starts, seals, compares)
	}
	if seals != starts {
		t.Errorf("seals %d != starts %d (every segment must seal)", seals, starts)
	}
	if compares != seals {
		t.Errorf("compares %d != seals %d (every sealed segment must compare)", compares, seals)
	}
	if got := countKind(rec, telemetry.Syscall); got != int(stats.SyscallsTraced) {
		t.Errorf("traced syscall events %d != stats %d", got, stats.SyscallsTraced)
	}
	if countKind(rec, telemetry.Detect) != 0 {
		t.Error("clean run emitted a detect event")
	}

	// timestamps are monotone per segment-start ordering
	var last float64 = -1
	for _, ev := range rec.Records() {
		if ev.Kind == telemetry.SegmentStart {
			if ev.SimNs < last {
				t.Errorf("segment starts out of order: %v < %v", ev.SimNs, last)
			}
			last = ev.SimNs
		}
	}
}

// TestTraceCapturesDetection: a detection leaves a detect event carrying
// the segment and kind.
func TestTraceCapturesDetection(t *testing.T) {
	cfg := smallSliceConfig()
	rec := telemetry.NewRecorder(0)
	cfg.Trace = rec
	stats := runWithHook(t, cfg, loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) { c.Regs.X[1] ^= 1 << 9 }))
	if stats.Detected == nil {
		t.Fatal("no detection")
	}
	if countKind(rec, telemetry.Detect) != 1 {
		t.Errorf("detect events = %d", countKind(rec, telemetry.Detect))
	}
}

// TestTraceDetectionPrecedesCompare: with a single checker a mismatch is
// the paper's pairwise detection. The segment's detect event comes before
// its compare event, whose detail ends in the detection's kind.
func TestTraceDetectionPrecedesCompare(t *testing.T) {
	cfg := smallSliceConfig()
	rec := telemetry.NewRecorder(0)
	cfg.Trace = rec
	stats := runWithHook(t, cfg, loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) { c.Regs.X[1] ^= 1 << 9 }))
	d := stats.Detected
	if d == nil {
		t.Fatal("no detection")
	}
	detectAt, compareAt := -1, -1
	for i, ev := range rec.Records() {
		if ev.Segment != d.Segment {
			continue
		}
		switch ev.Kind {
		case telemetry.Detect:
			detectAt = i
		case telemetry.Compare:
			compareAt = i
			if !strings.HasSuffix(ev.Detail, ", "+d.Kind.String()) {
				t.Errorf("compare detail %q does not end in the error kind %q", ev.Detail, d.Kind)
			}
		}
	}
	if detectAt < 0 || compareAt < 0 {
		t.Fatalf("segment %d: detect event at %d, compare event at %d; want both", d.Segment, detectAt, compareAt)
	}
	if detectAt > compareAt {
		t.Errorf("segment %d: detect event (#%d) after its compare event (#%d)", d.Segment, detectAt, compareAt)
	}
}
