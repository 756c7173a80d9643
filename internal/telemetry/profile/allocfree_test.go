// The race detector instruments every memory access with allocations of its
// own, so the zero-alloc pins only build without it.
//go:build !race

package profile

import (
	"testing"

	"parallaft/internal/machine"
)

// TestSamplerAllocFree pins the per-sample path: once a (pc, kind) bucket
// exists, repeated samples reuse it.
func TestSamplerAllocFree(t *testing.T) {
	rec := NewRecorder(0)
	s := rec.Actor("main")
	s.ProfileSample(42, machine.Big) // create the bucket
	s.ProfileSample(42, machine.Little)
	allocs := testing.AllocsPerRun(100, func() {
		s.ProfileSample(42, machine.Big)
		s.ProfileSample(42, machine.Little)
	})
	if allocs != 0 {
		t.Errorf("ProfileSample allocates %.1f objects per call, want 0", allocs)
	}
}

// TestNilRecorderAllocFree: every entry point is nil-safe and free — the
// disabled configuration must cost nothing on the paths the runtime calls
// unconditionally.
func TestNilRecorderAllocFree(t *testing.T) {
	var rec *Recorder
	var ws *WindowSampler
	allocs := testing.AllocsPerRun(100, func() {
		_ = rec.Actor("main")
		ws.Tick(1e6)
		ws.Flush(2e6)
	})
	if allocs != 0 {
		t.Errorf("nil-recorder paths allocate %.1f objects per call, want 0", allocs)
	}
}
