package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parallaft/internal/hashx"
)

const pg = 16 * 1024

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(pg)
}

func mustMap(t *testing.T, as *AddressSpace, base, length uint64) {
	t.Helper()
	if err := as.Map(base, length, ProtRW, "test"); err != nil {
		t.Fatalf("map [%#x,+%#x): %v", base, length, err)
	}
}

func TestNewAddressSpaceRejectsBadPageSize(t *testing.T) {
	for _, size := range []uint64{0, 3, 1000, pg + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("page size %d accepted", size)
				}
			}()
			NewAddressSpace(size)
		}()
	}
}

func TestMapUnmapBasics(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 2*pg)

	if as.PageCount() != 2 {
		t.Errorf("page count = %d, want 2", as.PageCount())
	}
	if _, f := as.LoadU64(0x10000); f != nil {
		t.Errorf("read of mapped page faulted: %v", f)
	}
	if _, f := as.LoadU64(0x10000 + 2*pg); f == nil {
		t.Error("read past mapping did not fault")
	}

	// overlap rejected
	if err := as.Map(0x10000+pg, pg, ProtRW, "x"); err == nil {
		t.Error("overlapping map accepted")
	}
	// unaligned rejected
	if err := as.Map(0x10000+2*pg+8, pg, ProtRW, "x"); err == nil {
		t.Error("unaligned map accepted")
	}

	if err := as.Unmap(0x10000, 2*pg); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if _, f := as.LoadU64(0x10000); f == nil {
		t.Error("read after unmap did not fault")
	}
	if err := as.Unmap(0x10000, 2*pg); err == nil {
		t.Error("double unmap accepted")
	}
}

func TestProtection(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, pg)
	if err := as.Protect(0x10000, pg, ProtRead); err != nil {
		t.Fatalf("protect: %v", err)
	}
	if _, f := as.LoadU64(0x10000); f != nil {
		t.Errorf("read of read-only page faulted: %v", f)
	}
	_, f := as.StoreU64(0x10000, 1)
	if f == nil || f.Kind != FaultProt || !f.Write {
		t.Errorf("write to read-only page: fault = %+v, want write prot fault", f)
	}
	if err := as.Protect(0x10000, pg, ProtNone); err != nil {
		t.Fatalf("protect none: %v", err)
	}
	if _, f := as.LoadU64(0x10000); f == nil {
		t.Error("read of PROT_NONE page did not fault")
	}
}

func TestLoadStoreWidths(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0, pg)

	if _, f := as.StoreU64(8, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	v, f := as.LoadU64(8)
	if f != nil || v != 0x1122334455667788 {
		t.Errorf("LoadU64 = %#x, %v", v, f)
	}
	b, f := as.LoadByte(8)
	if f != nil || b != 0x88 {
		t.Errorf("little-endian low byte = %#x, want 0x88", b)
	}
	if _, f := as.StoreByte(15, 0xff); f != nil {
		t.Fatal(f)
	}
	v, _ = as.LoadU64(8)
	if v != 0xff22334455667788 {
		t.Errorf("byte store merged wrong: %#x", v)
	}
}

func TestUnalignedAndStraddlingAccess(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0, 2*pg)
	addr := uint64(pg - 4) // straddles the page boundary
	if _, f := as.StoreU64(addr, 0xdeadbeefcafef00d); f != nil {
		t.Fatal(f)
	}
	v, f := as.LoadU64(addr)
	if f != nil || v != 0xdeadbeefcafef00d {
		t.Errorf("straddling access = %#x, %v", v, f)
	}
}

func TestForkCOWIsolation(t *testing.T) {
	parent := newAS(t)
	mustMap(t, parent, 0, pg)
	parent.StoreU64(0, 111) //nolint:errcheck

	child := parent.Fork()
	if got := child.MapCountOf(0); got != 2 {
		t.Errorf("shared frame map count = %d, want 2", got)
	}

	// child write must not affect the parent
	child.StoreU64(0, 222) //nolint:errcheck
	if v, _ := parent.LoadU64(0); v != 111 {
		t.Errorf("parent sees child write: %d", v)
	}
	if v, _ := child.LoadU64(0); v != 222 {
		t.Errorf("child lost its write: %d", v)
	}
	// after COW both sides own their frame privately
	if parent.MapCountOf(0) != 1 || child.MapCountOf(0) != 1 {
		t.Errorf("map counts after COW = %d/%d, want 1/1",
			parent.MapCountOf(0), child.MapCountOf(0))
	}
	st := child.Stats()
	if st.COWCopies != 1 || st.COWBytes != pg {
		t.Errorf("child COW stats = %+v", st)
	}
	if parent.Stats().COWCopies != 0 {
		t.Error("parent charged for child's COW")
	}
}

func TestForkParentWriteCopies(t *testing.T) {
	parent := newAS(t)
	mustMap(t, parent, 0, pg)
	child := parent.Fork()
	parent.StoreU64(0, 999) //nolint:errcheck
	if v, _ := child.LoadU64(0); v != 0 {
		t.Errorf("child sees parent's post-fork write: %d", v)
	}
	if parent.Stats().COWCopies != 1 {
		t.Error("parent write to shared page did not COW")
	}
}

func TestRelease(t *testing.T) {
	parent := newAS(t)
	mustMap(t, parent, 0, pg)
	child := parent.Fork()
	if parent.MapCountOf(0) != 2 {
		t.Fatal("expected shared frame")
	}
	child.Release()
	if parent.MapCountOf(0) != 1 {
		t.Errorf("map count after child release = %d, want 1", parent.MapCountOf(0))
	}
}

func TestSoftDirtyLifecycle(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0, 4*pg)
	// fresh pages are born dirty
	if got := len(as.DirtyPages(DirtySoft)); got != 4 {
		t.Errorf("fresh pages dirty = %d, want 4", got)
	}
	as.ClearSoftDirty()
	if got := len(as.DirtyPages(DirtySoft)); got != 0 {
		t.Errorf("dirty after clear = %d, want 0", got)
	}
	as.StoreU64(2*pg+8, 1) //nolint:errcheck
	dirty := as.DirtyPages(DirtySoft)
	if len(dirty) != 1 || dirty[0] != 2 {
		t.Errorf("dirty after one write = %v, want [2]", dirty)
	}
}

func TestDirtyMapCountMode(t *testing.T) {
	parent := newAS(t)
	mustMap(t, parent, 0, 4*pg)
	child := parent.Fork()
	// all shared: nothing "dirty" by map count
	if got := len(child.DirtyPages(DirtyMapCount)); got != 0 {
		t.Errorf("shared pages reported dirty = %d", got)
	}
	child.StoreU64(3*pg, 5) //nolint:errcheck
	dirty := child.DirtyPages(DirtyMapCount)
	if len(dirty) != 1 || dirty[0] != 3 {
		t.Errorf("map-count dirty = %v, want [3]", dirty)
	}
}

func TestDiffFrames(t *testing.T) {
	base := newAS(t)
	mustMap(t, base, 0, 4*pg)
	base.StoreU64(0, 1) //nolint:errcheck

	cp1 := base.Fork()
	base.StoreU64(pg+8, 2) //nolint:errcheck // modifies page 1
	if err := base.Map(0x100000, pg, ProtRW, "new"); err != nil {
		t.Fatal(err)
	}
	cp2 := base.Fork()

	diff := AppendDiffFrames(cp1, cp2, nil)
	want := map[uint64]bool{1: true, 0x100000 / pg: true}
	if len(diff) != len(want) {
		t.Fatalf("diff = %v, want pages %v", diff, want)
	}
	for _, vpn := range diff {
		if !want[vpn] {
			t.Errorf("unexpected diff page %#x", vpn)
		}
	}
}

func TestBrk(t *testing.T) {
	as := newAS(t)
	as.SetBrk(0x40000)
	if got := as.Brk(0); got != 0x40000 {
		t.Errorf("brk query = %#x", got)
	}
	if got := as.Brk(0x40000 + 3*pg + 100); got != 0x40000+3*pg+100 {
		t.Errorf("brk grow = %#x", got)
	}
	// the covering pages must be mapped
	if _, f := as.StoreU64(0x40000+3*pg+88, 1); f != nil {
		t.Errorf("write inside brk region faulted: %v", f)
	}
	// shrink is ignored
	if got := as.Brk(0x40000); got != 0x40000+3*pg+100 {
		t.Errorf("brk shrink changed the break: %#x", got)
	}
}

func TestFindFree(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x20000, 2*pg)
	got := as.FindFree(0x20000, pg)
	if got < 0x20000+2*pg {
		t.Errorf("FindFree returned %#x inside an existing mapping", got)
	}
	if err := as.Map(got, pg, ProtRW, "x"); err != nil {
		t.Errorf("FindFree result unusable: %v", err)
	}
}

func TestPSSAccounting(t *testing.T) {
	parent := newAS(t)
	mustMap(t, parent, 0, 4*pg)
	if got := parent.PSSBytes(); got != 4*pg {
		t.Errorf("sole owner PSS = %v, want %v", got, 4*pg)
	}
	child := parent.Fork()
	if got := parent.PSSBytes(); got != 2*pg {
		t.Errorf("PSS with one sharer = %v, want %v", got, 2*pg)
	}
	// parent+child PSS must equal total physical memory
	total := parent.PSSBytes() + child.PSSBytes()
	if total != 4*pg {
		t.Errorf("PSS sum = %v, want %v", total, 4*pg)
	}
	child.StoreU64(0, 1) //nolint:errcheck // private copy: +1 frame
	total = parent.PSSBytes() + child.PSSBytes()
	if total != 5*pg {
		t.Errorf("PSS sum after COW = %v, want %v", total, 5*pg)
	}
	if parent.PageCount() != 4 || child.PageCount() != 4 {
		t.Error("each side should still map every page, shared or not")
	}
}

// TestPSSFixedOrder: with map counts that are not powers of two the per-page
// terms are inexact, so the sum depends on its order. Every call must give
// the ascending-page sum, bit for bit.
func TestPSSFixedOrder(t *testing.T) {
	const pages = 512
	parent := newAS(t)
	mustMap(t, parent, 0, pages*pg)
	mustMap(t, parent, 0x4000_0000, 7*pg)
	// Five sharers of every page; child c then takes private copies of every
	// page whose number is 0 mod c+2, leaving map counts from 1 to 5.
	for c := 0; c < 4; c++ {
		child := parent.Fork()
		for vpn := uint64(0); vpn < pages; vpn += uint64(c + 2) {
			if _, err := child.StoreU64(vpn*pg, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want float64
	for _, r := range parent.FrameRefs() {
		want += float64(pg) / float64(r.Frame.ref)
	}
	for i := 0; i < 50; i++ {
		if got := parent.PSSBytes(); got != want {
			t.Fatalf("call %d: PSS = %.17g, ascending-page sum %.17g", i, got, want)
		}
	}
}

func TestVMAListAndSharedCounts(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x30000, pg)
	mustMap(t, as, 0x10000, pg)
	vmas := as.VMAs()
	if len(vmas) != 2 || vmas[0].Base != 0x10000 || vmas[1].Base != 0x30000 {
		t.Errorf("VMAs not sorted: %+v", vmas)
	}
	child := as.Fork()
	for _, r := range child.FrameRefs() {
		if r.Frame.MapCount() != 2 {
			t.Errorf("page %#x: map count %d after fork, want 2", r.VPN, r.Frame.MapCount())
		}
	}
}

// TestForkIsolationProperty: random interleaved writes to parent and child
// must never leak across the fork, and PSS must always sum to the real
// frame count.
func TestForkIsolationProperty(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewAddressSpace(pg)
		if err := parent.Map(0, 8*pg, ProtRW, "arena"); err != nil {
			return false
		}
		// distinct fill so any leak is visible
		for i := uint64(0); i < 8; i++ {
			parent.StoreU64(i*pg, i+1000) //nolint:errcheck
		}
		child := parent.Fork()
		model := map[uint64]uint64{} // child's expected view
		for i := uint64(0); i < 8; i++ {
			model[i] = i + 1000
		}
		for _, op := range ops {
			page := uint64(op % 8)
			val := uint64(rng.Int63())
			if op&0x100 != 0 {
				child.StoreU64(page*pg, val) //nolint:errcheck
				model[page] = val
			} else {
				parent.StoreU64(page*pg, val) //nolint:errcheck
			}
		}
		for page, want := range model {
			got, fault := child.LoadU64(page * pg)
			if fault != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- frame identity and hash memoization -----------------------------------

const testSeed = 0x9a7a11af7

func TestFrameIdentityStable(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 2*pg)
	f := as.FrameAt(as.VPN(0x10000))
	if f == nil {
		t.Fatal("mapped page has no frame")
	}
	if f.ID() == 0 {
		t.Error("frame ID not assigned")
	}
	if g := as.FrameAt(as.VPN(0x10000 + pg)); g.ID() == f.ID() {
		t.Error("distinct frames share an ID")
	}
	// Writes keep the identity (only COW redirects change the frame).
	as.StoreU64(0x10000, 7) //nolint:errcheck
	if as.FrameAt(as.VPN(0x10000)) != f {
		t.Error("private write changed the frame")
	}
	// A fork shares the frame: same pointer, same ID on both sides.
	child := as.Fork()
	if child.FrameAt(child.VPN(0x10000)) != f {
		t.Error("fork did not share the frame")
	}
	if as.FrameAt(as.VPN(0x20000)) != nil {
		t.Error("unmapped page returned a frame")
	}
}

// TestContentHashInvalidation is the hash-cache invalidation contract: a
// memoized frame hash must never be served stale — in particular, a COW
// write to a shared frame must leave every sharer's hash correct.
func TestContentHashInvalidation(t *testing.T) {
	const base = 0x10000
	cases := []struct {
		name string
		// mutate acts on the parent/child pair after both hashes were
		// memoized; wantRecompute lists which sides must see a fresh
		// (non-cached) and correct hash afterwards.
		mutate              func(t *testing.T, parent, child *AddressSpace)
		wantParentRecompute bool
		wantChildRecompute  bool
	}{
		{
			name:                "no write keeps both memos",
			mutate:              func(t *testing.T, parent, child *AddressSpace) {},
			wantParentRecompute: false,
			wantChildRecompute:  false,
		},
		{
			name: "child COW write invalidates only the child",
			mutate: func(t *testing.T, parent, child *AddressSpace) {
				if _, f := child.StoreU64(base, 0xdead); f != nil {
					t.Fatal(f)
				}
			},
			wantParentRecompute: false,
			wantChildRecompute:  true,
		},
		{
			name: "parent COW write invalidates only the parent",
			mutate: func(t *testing.T, parent, child *AddressSpace) {
				if _, f := parent.StoreU64(base, 0xbeef); f != nil {
					t.Fatal(f)
				}
			},
			wantParentRecompute: true,
			wantChildRecompute:  false,
		},
		{
			name: "private rewrite after COW invalidates again",
			mutate: func(t *testing.T, parent, child *AddressSpace) {
				// First write COWs to a private frame; the second write hits
				// the same private frame (often via the write TLB) and must
				// still invalidate its memo.
				if _, f := child.StoreU64(base, 1); f != nil {
					t.Fatal(f)
				}
				if _, fr := child.FrameAt(child.VPN(base)).ContentHash(testSeed); fr {
					t.Fatal("memo survived the COW write")
				}
				if _, f := child.StoreU64(base+8, 2); f != nil {
					t.Fatal(f)
				}
			},
			wantParentRecompute: false,
			wantChildRecompute:  true,
		},
		{
			name: "byte store invalidates",
			mutate: func(t *testing.T, parent, child *AddressSpace) {
				if _, f := child.StoreByte(base+123, 0x5a); f != nil {
					t.Fatal(f)
				}
			},
			wantParentRecompute: false,
			wantChildRecompute:  true,
		},
		{
			name: "bulk write invalidates",
			mutate: func(t *testing.T, parent, child *AddressSpace) {
				if f := child.Write(base+256, []byte("not the same bytes")); f != nil {
					t.Fatal(f)
				}
			},
			wantParentRecompute: false,
			wantChildRecompute:  true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent := newAS(t)
			mustMap(t, parent, base, pg)
			if _, f := parent.StoreU64(base, 42); f != nil {
				t.Fatal(f)
			}
			child := parent.Fork()

			// Memoize both sides (same shared frame: second call must hit).
			pv, _ := parent.FrameAt(parent.VPN(base)).ContentHash(testSeed)
			cv, hit := child.FrameAt(child.VPN(base)).ContentHash(testSeed)
			if !hit || pv != cv {
				t.Fatalf("shared frame not memoized: hit=%v parent=%#x child=%#x", hit, pv, cv)
			}

			tc.mutate(t, parent, child)

			check := func(side string, as *AddressSpace, wantRecompute bool) {
				t.Helper()
				f := as.FrameAt(as.VPN(base))
				got, cached := f.ContentHash(testSeed)
				if cached == wantRecompute {
					t.Errorf("%s: cached=%v, want recompute=%v", side, cached, wantRecompute)
				}
				// The served hash must equal a from-scratch hash of the
				// actual contents — never a stale memo.
				var buf [pg]byte
				if fault := as.Read(base, buf[:]); fault != nil {
					t.Fatal(fault)
				}
				want := hashx.Sum64(testSeed, buf[:])
				if got != want {
					t.Errorf("%s: hash %#x != contents hash %#x (stale memo served)", side, got, want)
				}
			}
			check("parent", parent, tc.wantParentRecompute)
			check("child", child, tc.wantChildRecompute)
		})
	}
}

func TestContentHashSeedIsPartOfTheMemoKey(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, pg)
	f := as.FrameAt(as.VPN(0x10000))
	a, _ := f.ContentHash(1)
	b, cached := f.ContentHash(2)
	if cached {
		t.Error("memo for seed 1 served a seed-2 request")
	}
	if a == b {
		t.Error("different seeds produced the same hash")
	}
	if _, cached := f.ContentHash(2); !cached {
		t.Error("seed-2 memo not installed")
	}
}

// TestAdoptFrameSharesUntilWritten: a page adopted by reference reads the
// borrowed bytes, starts clean, and is copied — never written in place — by
// the first store, however many pages and address spaces share the frame.
func TestAdoptFrameSharesUntilWritten(t *testing.T) {
	chunk := make([]byte, pg)
	chunk[8] = 0x5a
	f := NewSharedFrame(chunk)
	sum, _ := f.ContentHash(testSeed)

	as := newAS(t)
	if err := as.Reserve(0x10000, 2*pg, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if as.PageCount() != 0 {
		t.Fatalf("Reserve backed %d pages, want none", as.PageCount())
	}
	for vpn := uint64(0x10000 / pg); vpn < 0x10000/pg+2; vpn++ {
		if err := as.AdoptFrame(vpn, f, ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	if f.MapCount() != 3 {
		t.Fatalf("MapCount = %d, want 3 (two pages and the creator)", f.MapCount())
	}
	if d := as.DirtyPages(DirtySoft); len(d) != 0 {
		t.Fatalf("adopted pages start soft-dirty: %v", d)
	}
	if v, fault := as.LoadU64(0x10000 + pg + 8); fault != nil || v != 0x5a {
		t.Fatalf("load through an adopted page = %#x, %v", v, fault)
	}

	cow, fault := as.StoreU64(0x10000+8, 0xbeef)
	if fault != nil || !cow {
		t.Fatalf("first store to an adopted page: cow=%v fault=%v, want a copy", cow, fault)
	}
	if chunk[8] != 0x5a {
		t.Fatal("the store reached the borrowed bytes")
	}
	if v, _ := as.LoadU64(0x10000 + pg + 8); v != 0x5a {
		t.Fatalf("the store leaked into the other page sharing the frame: %#x", v)
	}
	if got, cached := f.ContentHash(testSeed); got != sum || !cached {
		t.Errorf("shared frame's hash memo did not survive the copy: %#x cached=%v, want %#x", got, cached, sum)
	}
	if d := as.DirtyPages(DirtySoft); len(d) != 1 || d[0] != 0x10000/pg {
		t.Errorf("dirty pages after one store = %v", d)
	}

	as.Release()
	if f.MapCount() != 1 {
		t.Errorf("MapCount after Release = %d, want 1 (the creator's)", f.MapCount())
	}
}

func TestAdoptFrameRejections(t *testing.T) {
	as := newAS(t)
	if err := as.Reserve(0x10000, pg, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := as.Reserve(0x10000, pg, ProtRW, "again"); err == nil {
		t.Error("overlapping Reserve accepted")
	}
	page := NewSharedFrame(make([]byte, pg))
	cases := []struct {
		name string
		vpn  uint64
		f    *Frame
	}{
		{"short frame", 0x10000 / pg, NewSharedFrame(make([]byte, pg-1))},
		{"long frame", 0x10000 / pg, NewSharedFrame(make([]byte, pg+1))},
		{"outside every mapping", 0x10000/pg + 1, page},
		{"page number that wraps into a mapping", 0x10000/pg + 1<<50, page},
	}
	for _, tc := range cases {
		if err := as.AdoptFrame(tc.vpn, tc.f, ProtRW); err == nil {
			t.Errorf("%s: adopted", tc.name)
		}
	}
	if err := as.AdoptFrame(0x10000/pg, page, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := as.AdoptFrame(0x10000/pg, page, ProtRead); err == nil {
		t.Error("second frame adopted at a backed page")
	}
	if page.MapCount() != 2 || as.PageCount() != 1 {
		t.Errorf("rejections left references behind: MapCount %d, %d pages", page.MapCount(), as.PageCount())
	}
	if _, fault := as.StoreU64(0x10000, 1); fault == nil || fault.Kind != FaultProt {
		t.Errorf("store to a page adopted read-only: %v, want a protection fault", fault)
	}
}
