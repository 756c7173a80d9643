package mem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"parallaft/internal/hashx"
)

// TestRecycledFrameIsNew: the next Map takes the frame Release just freed,
// whatever collections ran in between, and hands it out with a new ID, no
// hash memo, and nothing but zeroes, whatever it held.
func TestRecycledFrameIsNew(t *testing.T) {
	const base = 0x10000
	as := newAS(t)
	mustMap(t, as, base, pg)
	if f := as.Write(base, bytes.Repeat([]byte{0x3c}, pg)); f != nil {
		t.Fatal(f)
	}
	old := as.FrameAt(as.VPN(base))
	oldID := old.ID()
	stale, _ := old.ContentHash(testSeed)
	as.Release()
	runtime.GC()
	runtime.GC()

	again := newAS(t)
	mustMap(t, again, base, pg)
	f := again.FrameAt(again.VPN(base))
	if f != old {
		t.Fatal("Map did not take the frame Release freed")
	}
	if f.ID() == oldID {
		t.Errorf("recycled frame kept ID %d", oldID)
	}
	if !bytes.Equal(f.Data(), make([]byte, pg)) {
		t.Error("Map handed out a recycled frame that is not all zeroes")
	}
	sum, cached := f.ContentHash(testSeed)
	if cached || sum == stale {
		t.Errorf("recycled frame's first hash: %#x cached=%v, stale memo %#x", sum, cached, stale)
	}
	if want := hashx.Sum64(testSeed, make([]byte, pg)); sum != want {
		t.Errorf("recycled frame hashes to %#x, a zero page to %#x", sum, want)
	}
}

// TestReleasedFramePoisoned: in a race build a released frame reads as
// poison, so a read through a released address space cannot pass for the
// bytes it used to see.
func TestReleasedFramePoisoned(t *testing.T) {
	if !poisonReleased {
		t.Skip("released frames are poisoned in race builds only")
	}
	as := newAS(t)
	mustMap(t, as, 0x10000, pg)
	f := as.FrameAt(as.VPN(0x10000))
	as.Release()
	if !bytes.Equal(f.Data(), bytes.Repeat([]byte{0xa5}, pg)) {
		t.Error("a released frame still holds its bytes")
	}
}

// TestFreeListConcurrentUse: address spaces on several goroutines share the
// free list, as campaign workers do, and each still reads only its own
// bytes: a COW copy's whole page, not just the word stored, and a mapped
// page's zeroes.
func TestFreeListConcurrentUse(t *testing.T) {
	const workers, pages, cycles = 4, 8, 200
	var wg sync.WaitGroup
	for w := uint64(1); w <= workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent := NewAddressSpace(pg)
			if err := parent.Map(0, pages*pg, ProtRW, "arena"); err != nil {
				t.Error(err)
				return
			}
			for vpn := uint64(0); vpn < pages; vpn++ {
				parent.StoreU64(vpn*pg+pg-8, w) //nolint:errcheck // mapped
			}
			for c := uint64(0); c < cycles; c++ {
				child := parent.Fork()
				for vpn := uint64(0); vpn < pages; vpn++ {
					child.StoreU64(vpn*pg, w<<32|c) //nolint:errcheck // mapped
				}
				for vpn := uint64(0); vpn < pages; vpn++ {
					first, _ := child.LoadU64(vpn * pg)
					mid, _ := child.LoadU64(vpn*pg + pg/2)
					last, _ := child.LoadU64(vpn*pg + pg - 8)
					if first != w<<32|c || mid != 0 || last != w {
						t.Errorf("worker %d cycle %d page %d reads %#x, %#x, %#x", w, c, vpn, first, mid, last)
						return
					}
				}
				child.Release()
				fresh := NewAddressSpace(pg)
				if err := fresh.Map(0, pg, ProtRW, "fresh"); err != nil || !bytes.Equal(fresh.FrameAt(0).Data(), make([]byte, pg)) {
					t.Errorf("worker %d cycle %d: a freshly mapped page is not zero (%v)", w, c, err)
					return
				}
				fresh.Release()
			}
		}()
	}
	wg.Wait()
}

// TestSharedFrameNeverRecycled: a NewSharedFrame mapped by several address
// spaces and released by all of them is never handed out by Map or a COW
// copy, however much churn follows, and its bytes stay what they were.
func TestSharedFrameNeverRecycled(t *testing.T) {
	const base, pages = 0x10000, 8
	chunk := bytes.Repeat([]byte{0x77}, pg)
	shared := NewSharedFrame(chunk)
	want := hashx.Sum64(testSeed, chunk)
	for i := 0; i < 3; i++ {
		as := newAS(t)
		if err := as.Reserve(base, pg, ProtRW, "chunk"); err != nil {
			t.Fatal(err)
		}
		if err := as.AdoptFrame(as.VPN(base), shared, ProtRW); err != nil {
			t.Fatal(err)
		}
		as.Release()
	}
	if shared.MapCount() != 1 {
		t.Fatalf("MapCount after every sharer released = %d, want 1 (the creator's)", shared.MapCount())
	}

	parent := newAS(t)
	mustMap(t, parent, base, pages*pg)
	for cycle := 0; cycle < 2000; cycle++ {
		child := parent.Fork()
		for vpn := child.VPN(base); vpn < child.VPN(base)+pages; vpn++ {
			if _, f := child.StoreU64(vpn*pg, uint64(cycle)); f != nil {
				t.Fatal(f)
			}
			if child.FrameAt(vpn) == shared {
				t.Fatalf("cycle %d: a COW copy got the shared frame", cycle)
			}
		}
		child.Release()
		fresh := newAS(t)
		mustMap(t, fresh, base, pg)
		if fresh.FrameAt(fresh.VPN(base)) == shared {
			t.Fatalf("cycle %d: Map got the shared frame", cycle)
		}
		fresh.Release()
	}
	if got := hashx.Sum64(testSeed, shared.Data()); got != want {
		t.Errorf("the shared frame's bytes were written: they hash to %#x, want %#x", got, want)
	}
	if got, _ := shared.ContentHash(testSeed); got != want {
		t.Errorf("the shared frame's memo says %#x, want %#x", got, want)
	}
}

// TestLentBytesComeBack: a clone's pages read the source's bytes while a
// store on either side copies them away; once the clone is released, the
// source writes its pages in place again, and the bytes only the clone still
// held go back to the free list.
func TestLentBytesComeBack(t *testing.T) {
	const base = 0x10000
	src := newAS(t)
	mustMap(t, src, base, 2*pg)
	if f := src.Write(base, bytes.Repeat([]byte{0x11}, 2*pg)); f != nil {
		t.Fatal(f)
	}
	v0, v1 := src.VPN(base), src.VPN(base+pg)
	lent0 := &src.FrameAt(v0).Data()[0]
	clone := NewCloner().Clone(src)

	if cow, f := src.StoreByte(base, 0x22); f != nil || cow {
		t.Fatalf("store to lent bytes: cow=%v fault=%v, want an uncounted copy", cow, f)
	}
	if &src.FrameAt(v0).Data()[0] == lent0 {
		t.Fatal("the source wrote in place bytes its clone still holds")
	}
	if b, _ := clone.LoadByte(base); b != 0x11 {
		t.Fatalf("the clone reads %#x after the source's store, want 0x11", b)
	}

	clone.Release()
	lent1 := &src.FrameAt(v1).Data()[0]
	if _, f := src.StoreByte(base+pg, 0x33); f != nil {
		t.Fatal(f)
	}
	if &src.FrameAt(v1).Data()[0] != lent1 {
		t.Error("the source copied bytes its released clone had given back")
	}
	fresh := newAS(t)
	mustMap(t, fresh, base, pg)
	if &fresh.FrameAt(fresh.VPN(base)).Data()[0] != lent0 {
		t.Error("Map did not take the bytes only the released clone held")
	}
}

// TestClonerCountsItsCopies: a frame two cloned address spaces share is one
// frame among the copies, mapped as many times as copies map it — whatever
// the source's count — so map-count dirty discovery and copy-on-write decide
// among the copies as among the originals, and releasing the copies gives
// the source its bytes back.
func TestClonerCountsItsCopies(t *testing.T) {
	const base = 0x10000
	src := newAS(t)
	mustMap(t, src, base, pg)
	keep := src.Fork() // a third holder the cloner does not copy
	child := src.Fork()
	cl := NewCloner()
	a, b := cl.Clone(src), cl.Clone(child)
	v := src.VPN(base)
	if src.FrameAt(v).MapCount() != 3 || a.FrameAt(v) != b.FrameAt(v) || a.FrameAt(v).MapCount() != 2 {
		t.Fatalf("source frame mapped %d times; copies share it: %v, mapped %d times, want 2",
			src.FrameAt(v).MapCount(), a.FrameAt(v) == b.FrameAt(v), a.FrameAt(v).MapCount())
	}
	if d := a.DirtyPages(DirtyMapCount); len(d) != 0 {
		t.Errorf("a page both copies map is dirty by map count: %v", d)
	}
	if cow, f := a.StoreByte(base, 1); f != nil || !cow {
		t.Errorf("store to a page both copies map: cow=%v fault=%v, want a copy-on-write", cow, f)
	}
	if d := a.DirtyPages(DirtyMapCount); len(d) != 1 || d[0] != v {
		t.Errorf("the written page is not dirty by map count: %v", d)
	}
	a.Release()
	b.Release()
	child.Release()
	keep.Release()
	lent := &src.FrameAt(v).Data()[0]
	if _, f := src.StoreByte(base, 2); f != nil {
		t.Fatal(f)
	}
	if &src.FrameAt(v).Data()[0] != lent {
		t.Error("the source copied bytes its released copies had given back")
	}
}
