// Allocation figures only mean something without the race detector's own
// bookkeeping, so the guard builds without it.
//go:build !race

package checkd

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"parallaft/internal/pagestore"
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

// TestFrameReaderAllocFree pins the reused read buffer: in steady state a
// chunk frame read into the store allocates the store's own copy of the
// chunk and a little bookkeeping, not a second, per-frame payload buffer.
func TestFrameReaderAllocFree(t *testing.T) {
	const chunkLen, frames = 4096, 64
	var stream bytes.Buffer
	for i := 0; i < frames; i++ {
		payload := make([]byte, 8+chunkLen)
		binary.LittleEndian.PutUint64(payload, uint64(i))
		payload[8] = byte(i)
		if err := WriteFrame(&stream, FrameChunk, payload); err != nil {
			t.Fatal(err)
		}
	}
	store := pagestore.New(0)
	r := newFrameReader(&stream)
	read := func() {
		typ, payload, err := r.next()
		if err != nil || typ != FrameChunk {
			t.Fatalf("frame = (%q, %v)", typ, err)
		}
		store.Insert(pagestore.Key(binary.LittleEndian.Uint64(payload)), payload[8:])
	}
	read() // sizes the payload buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < frames; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / (frames - 1)
	t.Logf("%d bytes allocated per %d-byte chunk frame", perFrame, chunkLen)
	if perFrame > chunkLen+chunkLen/4 {
		t.Errorf("a chunk frame read allocates %d bytes for a %d-byte chunk: more than the store's copy", perFrame, chunkLen)
	}
}
