package compare

import (
	"reflect"
	"runtime"
	"testing"

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
	if res.HostHashedPages != 0 || res.HostHashedBytes != 0 {
		t.Errorf("host hashed %d pages / %d bytes, want 0 (all identity-skipped)",
			res.HostHashedPages, res.HostHashedBytes)
	}

	// A checker write COWs one page away from the shared frame: it must be
	// host-hashed (and mismatch), the rest stay identity-skipped.
	mustStore(t, chk, 0x10000+2*pg, 999)
	res = Run(req)
	if res.IdentitySkips != 3 || res.HostHashedPages != 2 {
		t.Errorf("after COW write: identitySkips=%d hostPages=%d, want 3/2",
			res.IdentitySkips, res.HostHashedPages)
	}
	if res.HashedBytes != 4*2*pg {
		t.Errorf("simulated HashedBytes=%d changed, want %d", res.HashedBytes, 4*2*pg)
	}
	if res.Mismatch == nil || res.Mismatch.Kind != MismatchContent ||
		res.Mismatch.VPN != (0x10000+2*pg)/pg {
		t.Errorf("mismatch = %+v, want content at vpn %#x", res.Mismatch, (0x10000+2*pg)/pg)
	}
}

// TestHashMemoAcrossRuns: a second comparison over the same diverged pages
// is served from the frames' memoized hashes (recovery arbitration re-runs
// the comparison; it must not re-hash unchanged frames).
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
	if first.HostHashedPages != 2 || first.CacheHits != 0 {
		t.Fatalf("first run: hostPages=%d cacheHits=%d, want 2/0",
			first.HostHashedPages, first.CacheHits)
	}
	second := Run(req)
	if second.HostHashedPages != 0 || second.CacheHits != 2 {
		t.Errorf("second run: hostPages=%d cacheHits=%d, want 0/2 (memo miss)",
			second.HostHashedPages, second.CacheHits)
	}
	if second.HashedBytes != first.HashedBytes || second.DirtyPages != first.DirtyPages {
		t.Errorf("simulated books differ across runs: %+v vs %+v", second, first)
	}
	if second.Mismatch == nil || *second.Mismatch != *first.Mismatch {
		t.Errorf("verdict differs across runs: %+v vs %+v", second.Mismatch, first.Mismatch)
	}
}

// TestResultIndependentOfWorkers: the full Result — verdict, mismatch page,
// and every counter — must not depend on the worker count, varied through
// GOMAXPROCS.
func TestResultIndependentOfWorkers(t *testing.T) {
	const pages = 100
	// Fresh state per worker count: hash memos persist on frames, so
	// reusing one pair would legitimately shift CacheHits between runs.
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
// same CacheHits bookkeeping and the mismatch chosen by minimal dirty-set
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
