// The race detector instruments every memory access with allocations of its
// own, so the zero-alloc pins only build without it.
//go:build !race

package telemetry

import "testing"

// TestTracingDisabledAllocFree pins the disabled-tracing hot path at zero
// allocations: with tracing off the runtime, farm and checkd all hold a nil
// recorder, and every Emit/Record/Note/Frame call sprinkled through their
// hot loops must cost nothing. This is the guard behind the
// observation-only guarantee — enabling the instrumentation points may not
// perturb the uninstrumented build's allocation behavior.
func TestTracingDisabledAllocFree(t *testing.T) {
	var r *Recorder
	span := StageSpan{TraceID: 1, Stage: StageUpload, Actor: "node0", Segment: 3, Seq: 2, Attempt: 1}
	args := []any{42} // pre-boxed so the caller side does not allocate either

	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(1, Compare, 1, "compared %d pages", args...)
		r.Record(span)
		r.Note("evict", "x")
		r.Frame("send", 'P', 64)
		_ = r.Dropped()
	}); n != 0 {
		t.Errorf("disabled tracing path allocates %v/op, want 0", n)
	}
}

// TestDroppedPathAllocationFree: over the limit with no ring armed, every
// record path only counts the drop: no lock, no detail formatting, no
// allocation.
func TestDroppedPathAllocationFree(t *testing.T) {
	span := StageSpan{TraceID: 1, Stage: StageUpload, Actor: "node0", Segment: 3, Seq: 2, Attempt: 1}
	args := []any{42} // pre-boxed so the caller side does not allocate either
	rec := NewRecorder(1)
	rec.Emit(0, Compare, 0, "fill")
	if n := testing.AllocsPerRun(1000, func() {
		rec.Emit(1, Compare, 1, "dropped %d", args...)
		rec.Record(span)
		rec.Note("evict", "x")
		rec.Frame("send", 'P', 64)
	}); n != 0 {
		t.Errorf("over-limit drop path allocates %v/op, want 0", n)
	}
	if rec.Dropped() == 0 {
		t.Error("records were not dropped")
	}
}
