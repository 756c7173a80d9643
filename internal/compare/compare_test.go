package compare

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"parallaft/internal/hashx"
	"parallaft/internal/mem"
)

const pg = 16 * 1024

const seed = 0x9a7a11af7

// Run performs one state comparison on a fresh Comparator.
func Run(req Request) Result {
	var c Comparator
	return c.Run(req)
}

func mustMap(t *testing.T, as *mem.AddressSpace, base, length uint64) {
	t.Helper()
	if err := as.Map(base, length, mem.ProtRW, "test"); err != nil {
		t.Fatalf("map [%#x,+%#x): %v", base, length, err)
	}
}

func mustStore(t *testing.T, as *mem.AddressSpace, addr, val uint64) {
	t.Helper()
	if _, f := as.StoreU64(addr, val); f != nil {
		t.Fatalf("store %#x: %v", addr, f)
	}
}

// TestFullMemoryDiscoveryIncludesCheckerOnlyMappings is the regression test
// for the full-memory ablation: the candidate set must enumerate the union
// of BOTH sides' mappings. A page the checker mapped but the reference
// never had used to escape the reference-only VMA walk whenever the
// checker-dirty union missed it too.
func TestFullMemoryDiscoveryIncludesCheckerOnlyMappings(t *testing.T) {
	ref := mem.NewAddressSpace(pg)
	mustMap(t, ref, 0x10000, 2*pg)
	chk := ref.Fork()
	mustMap(t, chk, 0x80000, pg)
	// Clear the checker's soft-dirty bits so the rogue mapping is invisible
	// to the checker-dirty union — only VMA enumeration can find it.
	chk.ClearSoftDirty()

	req := Request{Ref: ref, Chk: chk, Discovery: FullMemory,
		CheckerMode: mem.DirtySoft, Seed: seed}

	rogue := uint64(0x80000) / pg
	found := false
	var c Comparator
	for _, vpn := range c.dirtyVPNs(req) {
		if vpn == rogue {
			found = true
		}
	}
	if !found {
		t.Fatal("full-memory discovery missed a checker-only mapping")
	}

	res := Run(req)
	if res.Mismatch == nil || res.Mismatch.Kind != MismatchStructural || res.Mismatch.VPN != rogue {
		t.Errorf("mismatch = %+v, want structural at vpn %#x", res.Mismatch, rogue)
	}
}

// noMemos fails the test if any frame of the spaces holds a hash memo under
// seed: the comparisons decided every page without hashing. It fills the
// memos it checks, so it runs last.
func noMemos(t *testing.T, spaces ...*mem.AddressSpace) {
	t.Helper()
	seen := map[*mem.Frame]bool{}
	for _, as := range spaces {
		for _, r := range as.FrameRefs() {
			if seen[r.Frame] {
				continue
			}
			seen[r.Frame] = true
			if _, cached := r.Frame.ContentHash(seed); cached {
				t.Errorf("vpn %#x was hashed", r.VPN)
			}
		}
	}
}

// TestIdentityFastPath: frames still COW-shared between the end checkpoint
// and the checker are equal by identity — no host hashing, but the
// simulated book still charges both injected hashers for them.
func TestIdentityFastPath(t *testing.T) {
	main := mem.NewAddressSpace(pg)
	mustMap(t, main, 0x10000, 4*pg)
	for i := uint64(0); i < 4; i++ {
		mustStore(t, main, 0x10000+i*pg, i+1)
	}
	ref := main.Fork()
	chk := main.Fork()
	chk.ClearSoftDirty()

	req := Request{Ref: ref, Chk: chk, Discovery: FullMemory,
		CheckerMode: mem.DirtySoft, Seed: seed}
	res := Run(req)
	if res.Mismatch != nil {
		t.Fatalf("unexpected mismatch: %+v", res.Mismatch)
	}
	if res.DirtyPages != 4 || res.IdentitySkips != 4 {
		t.Errorf("dirty=%d identitySkips=%d, want 4/4", res.DirtyPages, res.IdentitySkips)
	}
	if res.HashedBytes != 4*2*pg {
		t.Errorf("simulated HashedBytes=%d, want %d (skips must not discount it)",
			res.HashedBytes, 4*2*pg)
	}

	// A checker write COWs one page away from the shared frame: its bytes
	// decide it (a mismatch), the rest stay identity-skipped, and nothing
	// is hashed.
	mustStore(t, chk, 0x10000+2*pg, 999)
	res = Run(req)
	if res.IdentitySkips != 3 || res.CacheHits != 0 {
		t.Errorf("after COW write: identitySkips=%d cacheHits=%d, want 3/0",
			res.IdentitySkips, res.CacheHits)
	}
	if res.HashedBytes != 4*2*pg {
		t.Errorf("simulated HashedBytes=%d changed, want %d", res.HashedBytes, 4*2*pg)
	}
	if res.Mismatch == nil || res.Mismatch.Kind != MismatchContent ||
		res.Mismatch.VPN != (0x10000+2*pg)/pg {
		t.Errorf("mismatch = %+v, want content at vpn %#x", res.Mismatch, (0x10000+2*pg)/pg)
	}
	noMemos(t, ref, chk)
}

// TestHashMemoAcrossRuns: a second comparison over the same diverged pages
// (recovery arbitration re-runs the comparison) reaches the same verdict
// and simulated books, and a hash memo on either side (an exported end
// checkpoint's) changes nothing: the bytes decide.
func TestHashMemoAcrossRuns(t *testing.T) {
	main := mem.NewAddressSpace(pg)
	mustMap(t, main, 0x10000, 2*pg)
	ref := main.Fork()
	chk := main.Fork()
	chk.ClearSoftDirty()
	mustStore(t, chk, 0x10000, 7) // diverge page 0 (content mismatch)

	req := Request{Ref: ref, Chk: chk, Discovery: FullMemory,
		CheckerMode: mem.DirtySoft, Seed: seed}

	first := Run(req)
	if first.CacheHits != 0 || first.Mismatch == nil || first.Mismatch.VPN != 0x10000/pg {
		t.Fatalf("first run: cacheHits=%d mismatch=%+v, want 0, content at vpn %#x",
			first.CacheHits, first.Mismatch, 0x10000/pg)
	}
	if second := Run(req); !reflect.DeepEqual(second, first) {
		t.Errorf("rerun %+v != first run %+v", second, first)
	}

	// Memoize the diverged page's reference side (the export shape), then
	// its checker side too.
	for i, as := range []*mem.AddressSpace{ref, chk} {
		as.FrameAt(0x10000 / pg).ContentHash(seed)
		if got := Run(req); !reflect.DeepEqual(got, first) {
			t.Errorf("%d memoized sides: result %+v, want %+v", i+1, got, first)
		}
	}
}

// TestResultIndependentOfWorkers: the full Result — verdict, mismatch page,
// and every counter — must not depend on the worker count, varied through
// GOMAXPROCS.
func TestResultIndependentOfWorkers(t *testing.T) {
	const pages = 100
	// Fresh state per worker count, so no run sees what an earlier one
	// left on the frames.
	mkReq := func() Request {
		main := mem.NewAddressSpace(pg)
		mustMap(t, main, 0x10000, pages*pg)
		ref := main.Fork()
		chk := main.Fork()
		chk.ClearSoftDirty()
		// Diverge a spread of pages; first differing page is vpn(0x10000)+17.
		for _, i := range []uint64{83, 41, 17, 64, 99} {
			mustStore(t, chk, 0x10000+i*pg, 0xbad0+i)
		}
		return Request{Ref: ref, Chk: chk, Discovery: FullMemory,
			CheckerMode: mem.DirtySoft, Seed: seed}
	}
	want := Run(mkReq())
	if want.Mismatch == nil || want.Mismatch.VPN != 0x10000/pg+17 {
		t.Fatalf("mismatch = %+v, want content at first diverged page", want.Mismatch)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(w)
		if got := Run(mkReq()); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: result %+v (mismatch %+v) != %+v (mismatch %+v)",
				w, got, got.Mismatch, want, want.Mismatch)
		}
	}
}

// TestStructuralBeatsLaterContentMismatch: the reported mismatch is the
// first in dirty-set order across kinds, as a sequential scan would find.
func TestStructuralBeatsLaterContentMismatch(t *testing.T) {
	ref := mem.NewAddressSpace(pg)
	for i := uint64(0); i < 3; i++ { // separate VMAs so one can be unmapped
		mustMap(t, ref, 0x10000+i*pg, pg)
	}
	chk := ref.Fork()
	chk.ClearSoftDirty()
	// Page 0: unmapped on the checker (structural, first in VMA order).
	if err := chk.Unmap(0x10000, pg); err != nil {
		t.Fatal(err)
	}
	// Page 2: content divergence, later in the scan.
	mustStore(t, chk, 0x10000+2*pg, 1)

	res := Run(Request{Ref: ref, Chk: chk, Discovery: FullMemory,
		CheckerMode: mem.DirtySoft, Seed: seed})
	if res.Mismatch == nil || res.Mismatch.Kind != MismatchStructural ||
		res.Mismatch.VPN != 0x10000/pg {
		t.Errorf("mismatch = %+v, want structural at vpn %#x", res.Mismatch, 0x10000/pg)
	}
}

// TestDiscoveryModesAgreeOnDivergence: every discovery mode must flag the
// same checker-side corruption of a main-dirtied page.
func TestDiscoveryModesAgreeOnDivergence(t *testing.T) {
	mkReq := func(t *testing.T, d Discovery) Request {
		mainAS := mem.NewAddressSpace(pg)
		mustMap(t, mainAS, 0x10000, 2*pg)
		mainAS.ClearSoftDirty()
		start := mainAS.Fork() // segment-start checkpoint
		chk := mainAS.Fork()   // checker forked at the same point
		chk.ClearSoftDirty()
		// Both sides execute the same write...
		mustStore(t, mainAS, 0x10000, 42)
		mustStore(t, chk, 0x10000, 42)
		end := mainAS.Fork() // segment-end checkpoint
		// ...then the checker corrupts the page.
		mustStore(t, chk, 0x10000, 43)
		mode := mem.DirtyMapCount
		if d == SoftDirty {
			mode = mem.DirtySoft
		}
		return Request{Base: start.Fork(), Ref: end, Chk: chk,
			Discovery: d, CheckerMode: mode, Seed: seed}
	}
	for _, tc := range []struct {
		name string
		d    Discovery
	}{{"framediff", FrameDiff}, {"softdirty", SoftDirty}, {"fullmem", FullMemory}} {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(mkReq(t, tc.d))
			if res.Mismatch == nil || res.Mismatch.Kind != MismatchContent ||
				res.Mismatch.VPN != 0x10000/pg {
				t.Errorf("mismatch = %+v, want content at vpn %#x", res.Mismatch, 0x10000/pg)
			}
		})
	}
}

func TestWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		procs, jobs, want int
	}{
		{8, 0, 1},  // no jobs: one worker (inline)
		{8, 31, 1}, // below threshold: stay sequential
		{1, 10_000, 1},
		{8, 64, 2}, // load-bounded
		{2, 10_000, 2},
		{8, 10_000, defaultWorkers},
	}
	for _, tc := range cases {
		runtime.GOMAXPROCS(tc.procs)
		if got := workerCount(tc.jobs); got != tc.want {
			t.Errorf("GOMAXPROCS %d: workerCount(%d) = %d, want %d", tc.procs, tc.jobs, got, tc.want)
		}
	}
}

// TestWorkerCountDegenerateRequests: job counts too small to pay for a
// goroutine, or smaller than the pool, degrade toward the serial path
// rather than spawning idle goroutines.
func TestWorkerCountDegenerateRequests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(16)
	for _, jobs := range []int{0, 5, 31, 64, 100} {
		got := workerCount(jobs)
		if got < 1 {
			t.Fatalf("workerCount(%d) = %d < 1", jobs, got)
		}
		if got > 1 && got > jobs/concurrencyThreshold {
			t.Errorf("workerCount(%d) = %d exceeds the per-worker load bound", jobs, got)
		}
	}
}

// TestResultDeterministicAcrossWorkerRequests runs one comparison shape
// under GOMAXPROCS {1, 2, 3, 4, 8} and requires bit-identical results:
// the same counters and the mismatch chosen by minimal dirty-set
// index no matter how the jobs were chunked.
func TestResultDeterministicAcrossWorkerRequests(t *testing.T) {
	const pages = 160
	// Diverge most pages so the parallel path genuinely engages (jobs is
	// well past concurrencyThreshold), with the earliest divergence at a
	// known index.
	diverged := make([]uint64, 0, pages-3)
	for i := uint64(3); i < pages; i++ {
		diverged = append(diverged, i)
	}
	mkReq := func() Request {
		main := mem.NewAddressSpace(pg)
		mustMap(t, main, 0x10000, pages*pg)
		ref := main.Fork()
		chk := main.Fork()
		chk.ClearSoftDirty()
		for _, i := range diverged {
			mustStore(t, chk, 0x10000+i*pg, 0xbad0+i)
		}
		return Request{Ref: ref, Chk: chk, Discovery: FullMemory,
			CheckerMode: mem.DirtySoft, Seed: seed}
	}
	want := Run(mkReq())
	if want.Mismatch == nil || want.Mismatch.Kind != MismatchContent ||
		want.Mismatch.VPN != 0x10000/pg+3 {
		t.Fatalf("mismatch = %+v, want content at the minimal diverged index", want.Mismatch)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(w)
		if got := Run(mkReq()); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: result %+v (mismatch %+v) != %+v (mismatch %+v)",
				w, got, got.Mismatch, want, want.Mismatch)
		}
	}
}

// TestComparatorScratchReuse runs several different comparisons through one
// Comparator and checks each against a fresh one-shot Run: reused union,
// discovery and job buffers must never leak state between calls.
func TestComparatorScratchReuse(t *testing.T) {
	var c Comparator
	mk := func(pages int, divergeAt []uint64) Request {
		main := mem.NewAddressSpace(pg)
		mustMap(t, main, 0x10000, uint64(pages)*pg)
		ref := main.Fork()
		chk := main.Fork()
		chk.ClearSoftDirty()
		for _, i := range divergeAt {
			mustStore(t, chk, 0x10000+i*pg, 0xfeed+i)
		}
		return Request{Ref: ref, Chk: chk, Discovery: FullMemory,
			CheckerMode: mem.DirtySoft, Seed: seed}
	}
	cases := [][]uint64{
		{5, 9},    // two mismatches
		{},        // clean
		{0},       // first page
		{1, 2, 3}, // shrinking then growing candidate sets
	}
	sizes := []int{12, 40, 3, 7}
	for i, div := range cases {
		reqA, reqB := mk(sizes[i], div), mk(sizes[i], div)
		got := c.Run(reqA)
		want := Run(reqB)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: reused comparator %+v != fresh %+v", i, got, want)
		}
	}
}

// TestByteCompareMatchesHash is Run against the comparison it stands in for,
// one that hashes both sides of every page held by two different frames. Over
// seeded dirty sets on the inline path and on the worker pool, with pairs
// that are equal or differ in one byte (the first, a middle one or the last),
// and with a hash memo on neither side, the reference side, the checker side
// or both, every field of the Result must match: the verdict and its page,
// the simulated books and identity skips.
func TestByteCompareMatchesHash(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	offsets := []uint64{0, pg / 2, pg - 1}
	for _, pages := range []int{6, 5 * concurrencyThreshold} {
		// One case per (offset, memo) with a single differing page, one
		// with none, and a few with several.
		var cases []diffCase
		for _, off := range offsets {
			for memo := 0; memo < 4; memo++ {
				cases = append(cases, diffCase{diffs: 1, off: off, memo: memo})
			}
		}
		cases = append(cases, diffCase{diffs: 0})
		for i := 0; i < 4; i++ {
			cases = append(cases, diffCase{diffs: 3, off: offsets[i%3], memo: i})
		}
		for i, dc := range cases {
			rng := rand.New(rand.NewSource(int64(pages*100 + i)))
			req, pairs := dc.build(t, rng, pages)
			if pages >= 2*concurrencyThreshold && pairs < 2*concurrencyThreshold {
				t.Fatalf("%d pages: %d pairs leave the worker pool idle", pages, pairs)
			}
			var rc Comparator
			want := hashBoth(&rc, req)
			if (want.Mismatch != nil) != (dc.diffs > 0) {
				t.Fatalf("%d pages, case %+v: reference mismatch %+v", pages, dc, want.Mismatch)
			}
			if got := Run(req); !reflect.DeepEqual(got, want) {
				t.Errorf("%d pages, case %+v: result %+v (mismatch %+v), want %+v (mismatch %+v)",
					pages, dc, got, got.Mismatch, want, want.Mismatch)
			}
		}
	}
}

// diffCase shapes one dirty set: how many pages differ, the offset of the
// byte that differs, and which sides of a differing page hold a hash memo
// (0 neither, 1 reference, 2 checker, 3 both).
type diffCase struct {
	diffs int
	off   uint64
	memo  int
}

// build maps pages pages of random bytes shared by a reference and a
// checker. About one page in six stays shared (an identity skip); every
// other page is rewritten with its own bytes on both sides, so its two
// frames differ and its contents do not, and gets a random memo state. Then
// dc.diffs random pages take dc's memo state with one checker byte flipped
// at dc.off. It returns the request and the number of pages held by two
// different frames.
func (dc diffCase) build(t *testing.T, rng *rand.Rand, pages int) (Request, int) {
	t.Helper()
	main := mem.NewAddressSpace(pg)
	mustMap(t, main, 0x10000, uint64(pages)*pg)
	page := make([]byte, pg)
	for i := 0; i < pages; i++ {
		rng.Read(page)
		if f := main.Write(0x10000+uint64(i)*pg, page); f != nil {
			t.Fatal(f)
		}
	}
	ref := main.Fork()
	chk := main.Fork()
	chk.ClearSoftDirty()

	memo := make([]int, pages)
	pairs := 0
	for i := range memo {
		memo[i] = -1
		if rng.Intn(6) == 0 {
			continue
		}
		addr := 0x10000 + uint64(i)*pg
		if f := main.Read(addr, page); f != nil {
			t.Fatal(f)
		}
		for _, as := range []*mem.AddressSpace{ref, chk} {
			if f := as.Write(addr, page); f != nil {
				t.Fatal(f)
			}
		}
		memo[i] = rng.Intn(4)
		pairs++
	}
	for _, i := range rng.Perm(pages)[:dc.diffs] {
		addr := 0x10000 + uint64(i)*pg + dc.off
		b, f := chk.LoadByte(addr)
		if f != nil {
			t.Fatal(f)
		}
		if _, f := chk.StoreByte(addr, b^0x5a); f != nil {
			t.Fatal(f)
		}
		if memo[i] < 0 {
			pairs++ // the store took the checker's own copy
		}
		memo[i] = dc.memo
	}
	for i, m := range memo {
		if m < 0 {
			continue // shared: one frame, and a memo on it is a memo on both
		}
		vpn := 0x10000/pg + uint64(i)
		if m&1 != 0 {
			ref.FrameAt(vpn).ContentHash(seed)
		}
		if m&2 != 0 {
			chk.FrameAt(vpn).ContentHash(seed)
		}
	}
	return Request{Ref: ref, Chk: chk, Discovery: FullMemory,
		CheckerMode: mem.DirtySoft, Seed: seed}, pairs
}

// hashBoth is the comparison as §4.4 states it: every both-mapped page held
// by two different frames is decided by hashing both sides. It neither reads
// nor fills a memo.
func hashBoth(c *Comparator, req Request) Result {
	var res Result
	dirty := c.dirtyVPNs(req)
	res.DirtyPages = uint64(len(dirty))
	for _, vpn := range dirty {
		rf, cf := req.Ref.FrameAt(vpn), req.Chk.FrameAt(vpn)
		var m *Mismatch
		switch {
		case rf == nil && cf == nil:
		case rf == nil || cf == nil:
			m = &Mismatch{Kind: MismatchStructural, VPN: vpn}
		default:
			res.HashedBytes += 2 * uint64(len(rf.Data()))
			if rf == cf {
				res.IdentitySkips++
				break
			}
			if hashx.Sum64(req.Seed, rf.Data()) != hashx.Sum64(req.Seed, cf.Data()) {
				m = &Mismatch{Kind: MismatchContent, VPN: vpn}
			}
		}
		if res.Mismatch == nil {
			res.Mismatch = m
		}
	}
	return res
}
