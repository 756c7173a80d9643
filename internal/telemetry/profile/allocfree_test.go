// The race detector instruments every memory access with allocations of its
// own, so the zero-alloc pins only build without it.
//go:build !race

package profile

import (
	"testing"

	"parallaft/internal/machine"
)

// TestLedgerOnActiveAllocFree pins the ledger's per-charge path at zero
// allocations: OnActive runs once per AccountActive call on the simulated
// hot path, so a single allocation here multiplies by every instruction
// quantum of a run.
func TestLedgerOnActiveAllocFree(t *testing.T) {
	m := machine.New(machine.AppleM2Like())
	l := NewLedger()
	l.Attach(m)
	c := m.Cores[0]
	allocs := testing.AllocsPerRun(100, func() {
		l.OnActive(c, machine.ActGuestMain, 0, 125.0)
		l.OnActive(c, machine.ActCOW, 0, 25.0)
	})
	if allocs != 0 {
		t.Errorf("OnActive allocates %.1f objects per call, want 0", allocs)
	}
}

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
	var led *Ledger
	var ws *WindowSampler
	allocs := testing.AllocsPerRun(100, func() {
		_ = rec.Actor("main")
		led.SetMetrics(nil)
		led.Finish(0, nil)
		ws.Tick(1e6)
		ws.Flush(2e6)
	})
	if allocs != 0 {
		t.Errorf("nil-recorder paths allocate %.1f objects per call, want 0", allocs)
	}
}
