// The race detector instruments every memory access with allocations of its
// own, so the zero-alloc pins only build without it.
//go:build !race

package machine

import "testing"

// TestAccountActiveAllocFree pins the per-charge path at zero allocations:
// AccountActive runs once per interpreter quantum and per runtime charge,
// and books the charge under its activity class in the same call, so a
// single allocation here multiplies by every quantum of a run.
func TestAccountActiveAllocFree(t *testing.T) {
	m := New(AppleM2Like())
	c := m.Cores[0]
	allocs := testing.AllocsPerRun(100, func() {
		c.SetActivity(ActGuestMain)
		c.AccountActive(125.0)
		c.SetActivity(ActCOW)
		c.AccountActive(25.0)
	})
	if allocs != 0 {
		t.Errorf("AccountActive allocates %.1f objects per call, want 0", allocs)
	}
}
