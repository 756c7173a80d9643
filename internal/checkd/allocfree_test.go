// Allocation figures only mean something without the race detector's own
// bookkeeping, so the guard builds without it.
//go:build !race

package checkd

import (
	"runtime"
	"testing"
)

// TestWarmRebuildAllocFree pins what adopting start pages by reference buys:
// a warm worker's rebuild allocates page-table entries and frame headers,
// never page-sized buffers. Its budget is a tenth of what one copy of the
// start pages would take; on this small guest it measures a twentieth, most
// of it the address space's two translation caches, and a larger start state
// adds a few dozen bytes per page.
func TestWarmRebuildAllocFree(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) < 2 {
		t.Fatalf("run exported %d packets, need 2", len(pkts))
	}
	c := newChecker()
	if v, err := c.check(store, pkts[0]); err != nil || !v.OK {
		t.Fatalf("packet 0: %v, err %v", v, err)
	}
	pkt := pkts[1]
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		as, err := c.rebuildAddressSpace(store, pkt.Config.PageSize, &pkt.Start)
		if err != nil {
			t.Fatal(err)
		}
		as.Release()
	}
	runtime.ReadMemStats(&after)
	perRebuild := (after.TotalAlloc - before.TotalAlloc) / rounds
	copied := pkt.Config.PageSize * uint64(len(pkt.Start.Pages))
	t.Logf("%d bytes per rebuild of %d pages (%d bytes of page data)", perRebuild, len(pkt.Start.Pages), copied)
	if perRebuild > copied/10 {
		t.Errorf("a warm rebuild allocates %d bytes for %d start pages of %d bytes: page data is being copied",
			perRebuild, len(pkt.Start.Pages), pkt.Config.PageSize)
	}
}
