// Allocation figures only mean something without the race detector's own
// bookkeeping, so the guard builds without it.
//go:build !race

package mem

import (
	"runtime"
	"testing"
)

// TestCOWSteadyStateAllocFree pins what the free list buys: once warm, a
// fork → store to every page → release cycle takes every COW copy's frame
// from the pages the previous child released, and allocates only the
// child's page table. The budget is an eighth of a page per copy; a copy
// that allocates its frame costs a whole one.
func TestCOWSteadyStateAllocFree(t *testing.T) {
	const pages, rounds = 64, 50
	parent := newAS(t)
	mustMap(t, parent, 0x10000, pages*pg)
	cycle := func() {
		child := parent.Fork()
		for vpn := child.VPN(0x10000); vpn < child.VPN(0x10000)+pages; vpn++ {
			if _, f := child.StoreU64(vpn*pg, vpn); f != nil {
				t.Fatal(f)
			}
		}
		child.Release()
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	before := parent.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	if parent.Stats() != before {
		t.Fatalf("the parent's books moved: %+v → %+v", before, parent.Stats())
	}
	perCopy := (m1.TotalAlloc - m0.TotalAlloc) / (pages * rounds)
	t.Logf("%d bytes allocated per COW copy of a %d-byte page", perCopy, pg)
	if perCopy > pg/8 {
		t.Errorf("a COW copy allocates %d bytes: its frame is not recycled", perCopy)
	}
}
