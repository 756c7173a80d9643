package checkd

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"parallaft/internal/asm"
	"parallaft/internal/core"
	"parallaft/internal/hashx"
	"parallaft/internal/mem"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/workload"
)

// exportedSuite exports three different guests into one store: the compute
// loop, the syscall-and-signal program, and a store-heavy stencil whose
// segments dirty most of what they map. Packets come back grouped by program.
func exportedSuite(t *testing.T) (*pagestore.Store, [][]*packet.CheckPacket) {
	t.Helper()
	store := pagestore.New(core.PageHashSeed)
	var byProg [][]*packet.CheckPacket
	for _, prog := range []*asm.Program{
		victimProgram(120_000),
		replayFaultProgram(),
		workload.Get("470.lbm").Gen(0.02)[0],
	} {
		stats, pkts := runExportedInto(t, store, smallSliceConfig(), prog)
		if stats.Detected != nil {
			t.Fatalf("%s: clean run detected in-process: %v", prog.Name, stats.Detected)
		}
		if len(pkts) < 3 {
			t.Fatalf("%s: %d packets, want several", prog.Name, len(pkts))
		}
		byProg = append(byProg, pkts)
	}
	return store, byProg
}

// suiteOrders returns the suite's packets in submission order, reversed, and
// with the programs interleaved packet by packet — a worker's frame cache
// sees runs of neighbours, neighbours backwards, and no neighbours at all.
func suiteOrders(byProg [][]*packet.CheckPacket) map[string][]*packet.CheckPacket {
	var forward, reverse, interleaved []*packet.CheckPacket
	for _, pkts := range byProg {
		forward = append(forward, pkts...)
	}
	for i := len(forward) - 1; i >= 0; i-- {
		reverse = append(reverse, forward[i])
	}
	for i := 0; len(interleaved) < len(forward); i++ {
		for _, pkts := range byProg {
			if i < len(pkts) {
				interleaved = append(interleaved, pkts[i])
			}
		}
	}
	return map[string][]*packet.CheckPacket{"forward": forward, "reverse": reverse, "interleaved": interleaved}
}

// TestReusedCheckerEqualsFresh is the differential behind the per-worker
// checker: whatever a worker checked before — neighbouring segments, the
// same segments backwards, other programs in between — a packet gets the
// verdict a checker built for it alone gives it.
func TestReusedCheckerEqualsFresh(t *testing.T) {
	store, byProg := exportedSuite(t)
	orders := suiteOrders(byProg)

	fresh := make(map[*packet.CheckPacket]Verdict)
	for _, pkt := range orders["forward"] {
		v, err := newChecker().check(store, pkt)
		if err != nil || !v.OK {
			t.Fatalf("%s seg %d on a cold checker: %v, err %v", pkt.ProgName, pkt.Segment, v, err)
		}
		fresh[pkt] = v
	}

	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			c := newChecker()
			for i, pkt := range order {
				v, err := c.check(store, pkt)
				if err != nil {
					t.Fatalf("packet %d (%s seg %d): %v", i, pkt.ProgName, pkt.Segment, err)
				}
				if v != fresh[pkt] {
					t.Fatalf("packet %d (%s seg %d) on the reused checker: %+v\non a fresh one: %+v",
						i, pkt.ProgName, pkt.Segment, v, fresh[pkt])
				}
			}
		})
	}

	// Every frame a checker adopted aliases a chunk of the store, and the
	// stencil's segments stored to most of them: none of those stores may
	// have reached the chunk.
	store.Each(func(k pagestore.Key, data []byte) {
		if got := pagestore.Key(hashx.Sum64(store.Seed(), data)); got != k {
			t.Errorf("chunk %#x now hashes to %#x: a guest store reached the store's bytes", uint64(k), uint64(got))
		}
	})
}

// TestWarmWorkersShareStore runs four warm workers over one store (under
// -race this is the check that adopted frames and their hash memos stay
// inside one goroutine while the chunk bytes under them are shared).
func TestWarmWorkersShareStore(t *testing.T) {
	store, byProg := exportedSuite(t)
	pkts := suiteOrders(byProg)["interleaved"]
	want, err := CheckAll(store, pkts, Options{Workers: 1})
	if err != nil {
		t.Fatalf("CheckAll, one worker: %v", err)
	}
	for round := 0; round < 2; round++ {
		got, err := CheckAll(store, pkts, Options{Workers: 4})
		if err != nil {
			t.Fatalf("CheckAll, four workers: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d verdicts, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] || !got[i].OK {
				t.Fatalf("verdict %d with four workers %+v, with one %+v", i, got[i], want[i])
			}
		}
	}
}

// untouchedPage returns the index into pkt.Start.Pages of a page the segment
// never wrote: its end-state hash is its start chunk's key (the store and
// the page hashes share a seed).
func untouchedPage(t *testing.T, pkt *packet.CheckPacket) int {
	t.Helper()
	end := make(map[uint64]uint64, len(pkt.EndState.Pages))
	for _, ph := range pkt.EndState.Pages {
		end[ph.VPN] = ph.Sum
	}
	for i, pg := range pkt.Start.Pages {
		if sum, ok := end[pg.VPN]; ok && sum == uint64(pg.Key) {
			return i
		}
	}
	t.Fatalf("%s seg %d: no page survives the segment unwritten", pkt.ProgName, pkt.Segment)
	return -1
}

// TestWarmCheckerStillRejects: a warm worker holds frames with memoized
// hashes from the packets before, which is exactly what a wrong verdict
// would come from. The flipped-hash control must still be rejected, and so
// must a start page whose chunk does not hold the bytes its key promises,
// in a page the segment never writes — a frame's hash comes from hashing
// its bytes on this worker, never from the key it was fetched under.
func TestWarmCheckerStillRejects(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 3 {
		t.Fatalf("want at least 3 packets, got %d", len(pkts))
	}
	target := pkts[2]

	t.Run("flipped end-state hash", func(t *testing.T) {
		c := newChecker()
		var want []Verdict
		for _, pkt := range pkts[:2] {
			v, err := c.check(store, pkt)
			if err != nil || !v.OK {
				t.Fatalf("warming on %s seg %d: %v, err %v", pkt.ProgName, pkt.Segment, v, err)
			}
			want = append(want, v)
		}
		bad := *target
		bad.EndState.Pages = append([]packet.PageHash(nil), target.EndState.Pages...)
		i := untouchedPage(t, target)
		for j := range bad.EndState.Pages {
			if bad.EndState.Pages[j].VPN == target.Start.Pages[i].VPN {
				bad.EndState.Pages[j].Sum ^= 1
			}
		}
		v, err := c.check(store, &bad)
		if err != nil || v.OK || v.ErrorKind != core.ErrMemMismatch.String() {
			t.Fatalf("flipped hash on a warm checker: %v, err %v; want a memory mismatch", v, err)
		}
		want = append(want, v)
		v, err = c.check(store, target)
		if err != nil || !v.OK {
			t.Fatalf("the unflipped packet afterwards: %v, err %v", v, err)
		}
		// Every substrate, timed or not, rejects the flip the same way.
		requireSubstrateIndependent(t, store, []*packet.CheckPacket{pkts[0], pkts[1], &bad, target}, append(want, v))
	})

	t.Run("chunk that does not match its key", func(t *testing.T) {
		// The same chunks under the same keys, except that one page the
		// target segment never writes arrives with a bit flipped — a chunk
		// damaged on its way to this node.
		victim := target.Start.Pages[untouchedPage(t, target)]
		damaged := pagestore.New(store.Seed())
		store.Each(func(k pagestore.Key, data []byte) {
			if k == victim.Key {
				data = append([]byte(nil), data...)
				data[len(data)/2] ^= 0x10
			}
			damaged.Insert(k, data)
		})
		c := newChecker()
		for _, pkt := range pkts[:2] { // whatever these give, they warm the cache
			if _, err := c.check(damaged, pkt); err != nil {
				t.Fatalf("warming on %s seg %d: %v", pkt.ProgName, pkt.Segment, err)
			}
		}
		for attempt := 0; attempt < 2; attempt++ { // the second finds every memo filled
			v, err := c.check(damaged, target)
			if err != nil || v.OK || v.ErrorKind != core.ErrMemMismatch.String() {
				t.Fatalf("attempt %d with a damaged chunk: %v, err %v; want a memory mismatch", attempt, v, err)
			}
		}
	})
}

// topOfVMAs is the first address past every mapping of a packet's start state.
func topOfVMAs(pkt *packet.CheckPacket) uint64 {
	var top uint64
	for _, v := range pkt.Start.VMAs {
		top = max(top, v.Base+v.Length)
	}
	return top
}

// withVMA is pkt with one more start-state mapping, listed with no pages.
func withVMA(pkt *packet.CheckPacket, base, length uint64) *packet.CheckPacket {
	bad := *pkt
	bad.Start.VMAs = append(slices.Clone(pkt.Start.VMAs), packet.VMA{Base: base, Length: length, Prot: uint8(mem.ProtRW), Name: "foreign"})
	return &bad
}

// hostilePageRefs are start states no address space can be built from. Each
// used to end in a silently short or overlong page, a plain error, the last
// writer winning, a mapping that ends below its base or, for a mapping with
// no chunks listed, a checker filling page tables until it runs out of memory.
func hostilePageRefs(store *pagestore.Store, pkt *packet.CheckPacket) map[string]*packet.CheckPacket {
	mutate := func(f func(pages []packet.PageRef) []packet.PageRef) *packet.CheckPacket {
		bad := *pkt
		bad.Start.Pages = f(append([]packet.PageRef(nil), pkt.Start.Pages...))
		return &bad
	}
	page := store.Get(pkt.Start.Pages[0].Key)
	topVMA := topOfVMAs(pkt)
	ps := pkt.Config.PageSize
	return map[string]*packet.CheckPacket{
		"vma wrapping past the top": withVMA(pkt, -(2 * ps), 4*ps),
		// Each page of it would cost a page-table entry: one VMA record
		// could make a checker build billions.
		"too many unbacked pages": withVMA(pkt, topVMA+ps, (maxUnbackedPages+1)*ps),
		"short chunk": mutate(func(p []packet.PageRef) []packet.PageRef {
			p[0].Key = store.Put(page[:len(page)-8])
			return p
		}),
		"long chunk": mutate(func(p []packet.PageRef) []packet.PageRef {
			p[0].Key = store.Put(append(append([]byte(nil), page...), 1, 2, 3))
			return p
		}),
		"page outside every vma": mutate(func(p []packet.PageRef) []packet.PageRef {
			p[len(p)-1].VPN = topVMA/pkt.Config.PageSize + 7
			return p
		}),
		"page listed twice": mutate(func(p []packet.PageRef) []packet.PageRef {
			return append(p, p[1])
		}),
	}
}

// TestHostilePageRefs: a start state that names a chunk of the wrong length,
// a page outside every VMA or one page twice, maps a range past 2^64 or maps
// more pages than a checker backs with zeroes,
// resolves — under a deadline, a stuck or dead worker being the regression —
// to a typed infrastructure verdict, and the worker that met it checks the
// next packet as usual.
func TestHostilePageRefs(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) < 2 {
		t.Fatalf("run exported %d packets, need 2", len(pkts))
	}
	for name, bad := range hostilePageRefs(store, pkts[1]) {
		t.Run(name, func(t *testing.T) {
			done := make(chan []Verdict, 1)
			go func() {
				vs, err := CheckAll(store, []*packet.CheckPacket{pkts[0], bad, pkts[1]}, Options{Workers: 1})
				if err != nil {
					t.Errorf("CheckAll: %v", err)
				}
				done <- vs
			}()
			select {
			case vs := <-done:
				if len(vs) != 3 {
					t.Fatalf("%d verdicts for 3 packets", len(vs))
				}
				if err := vs[1].InfraErr(); vs[1].OK || !errors.Is(err, ErrUnrunnable) || !errors.Is(err, packet.ErrCorrupt) {
					t.Errorf("hostile packet: %v (infra error %v), want ErrUnrunnable", vs[1], err)
				}
				if !vs[0].OK || !vs[2].OK {
					t.Errorf("healthy packets around it: %v, %v", vs[0], vs[2])
				}
			case <-time.After(20 * time.Second):
				t.Fatal("no verdicts: the worker is stuck or gone")
			}
		})
	}

	// A mapping the packet lists no pages for is no hostile shape: it reads
	// as zeroes and passes when the end state says so. What a hostile sender
	// could do with it is make the checker allocate; every such page shares
	// the checker's one zero frame, so it costs a page-table entry.
	t.Run("unbacked pages share one zero frame", func(t *testing.T) {
		const unbacked = 256
		pkt := pkts[1]
		ps := pkt.Config.PageSize
		base := topOfVMAs(pkt) + 64*ps
		bad := withVMA(pkt, base, unbacked*ps)
		zeroSum := hashx.Sum64(pkt.Config.HashSeed, make([]byte, ps))
		bad.EndState.Pages = slices.Clone(pkt.EndState.Pages)
		for vpn := base / ps; vpn < base/ps+unbacked; vpn++ {
			bad.EndState.Pages = append(bad.EndState.Pages, packet.PageHash{VPN: vpn, Sum: zeroSum})
		}
		vs, err := CheckAll(store, []*packet.CheckPacket{pkts[0], bad, pkts[1]}, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			if !v.OK {
				t.Errorf("packet %d: %v", i, v)
			}
		}

		c := newChecker()
		allocated := func(st *packet.StartState) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			as, err := c.rebuildAddressSpace(store, ps, st)
			if err != nil {
				t.Fatal(err)
			}
			as.Release()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		allocated(&bad.Start) // warm: the checker's frames and its zero frame
		plain, foreign := allocated(&pkt.Start), allocated(&bad.Start)
		t.Logf("rebuild allocates %d bytes, %d with %d unbacked pages", plain, foreign, unbacked)
		if foreign > plain+unbacked/64*ps {
			t.Errorf("%d unbacked pages cost %d bytes more than none: one page per 64 is the budget",
				unbacked, foreign-plain)
		}
	})
}

// TestMissingChunkRetryLeavesRefcountsBalanced: a rebuild that stops at a
// chunk still in flight must give back the references it took, or the frames
// it shares with the next attempt would sit at a map count that no longer
// means "shared", and the retry that finds the chunk must succeed.
func TestMissingChunkRetryLeavesRefcountsBalanced(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) < 2 {
		t.Fatalf("run exported %d packets, need 2", len(pkts))
	}
	// The last page of packet 1 that packet 0 does not have: the rebuild has
	// adopted everything before it when it finds the chunk missing.
	had := make(map[pagestore.Key]bool)
	for _, pg := range pkts[0].Start.Pages {
		had[pg.Key] = true
	}
	var late pagestore.Key
	for _, pg := range pkts[1].Start.Pages {
		if !had[pg.Key] {
			late = pg.Key
		}
	}
	if late == 0 {
		t.Fatal("packet 1 starts from exactly packet 0's pages")
	}
	partial := pagestore.New(store.Seed())
	store.Each(func(k pagestore.Key, data []byte) {
		if k != late {
			partial.Insert(k, data)
		}
	})

	c := newChecker()
	balanced := func(when string) {
		t.Helper()
		for k, f := range c.frames {
			if f.MapCount() != 1 {
				t.Errorf("%s: frame of chunk %#x has map count %d, want 1", when, uint64(k), f.MapCount())
			}
		}
	}
	if v, err := c.check(partial, pkts[0]); err != nil || !v.OK {
		t.Fatalf("packet 0: %v, err %v", v, err)
	}
	balanced("after a verdict")
	if _, err := c.check(partial, pkts[1]); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("packet 1 without chunk %#x: err %v, want ErrMissingChunk", uint64(late), err)
	}
	balanced("after a missing chunk")
	partial.Insert(late, store.Get(late))
	if v, err := c.check(partial, pkts[1]); err != nil || !v.OK {
		t.Fatalf("packet 1 once the chunk arrived: %v, err %v", v, err)
	}
	balanced("after the retry")
	if len(c.frames) == 0 {
		t.Fatal("the checker kept no frames")
	}
}

// FuzzRebuildStartState drives a checker's intake — decode, admit, start-state
// rebuild — with whatever packet bytes a sender could put in a 'P' frame.
// Every input ends in a typed rejection or in an address space that maps
// exactly the pages its VMAs cover; it never panics. And whatever the rebuild
// did, releasing the address space gives every frame the checker keeps back
// its own reference, and only that.
func FuzzRebuildStartState(f *testing.F) {
	_, store, pkts := runExported(f, smallSliceConfig(), victimProgram(120_000))
	pkt := pkts[1]
	f.Add(packet.Encode(pkt))
	for _, bad := range hostilePageRefs(store, pkt) {
		f.Add(packet.Encode(bad))
	}
	ps := pkt.Config.PageSize
	f.Add(packet.Encode(withVMA(pkt, topOfVMAs(pkt)+64*ps, 256*ps))) // unbacked pages
	for _, bad := range unrunnablePackets(pkts) {
		f.Add(packet.Encode(bad))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := packet.Decode(b)
		if err != nil {
			return // the codec's own fuzzer covers what Decode refuses
		}
		var x Executor
		if err := x.admit(p); err != nil {
			if !errors.Is(err, ErrVersion) && !errors.Is(err, ErrConfigDigest) && !errors.Is(err, ErrUnrunnable) {
				t.Fatalf("admit: untyped rejection %v", err)
			}
			return
		}
		c := newChecker()
		warm, err := c.rebuildAddressSpace(store, ps, &pkt.Start) // a worker has met a packet before
		if err != nil {
			t.Fatal(err)
		}
		warm.Release()

		as, err := c.rebuildAddressSpace(store, p.Config.PageSize, &p.Start)
		if err != nil {
			if !errors.Is(err, ErrUnrunnable) && !errors.Is(err, ErrMissingChunk) {
				t.Fatalf("rebuild: untyped error %v", err)
			}
		} else {
			var vmaPages uint64
			for _, v := range p.Start.VMAs {
				vmaPages += v.Length / p.Config.PageSize
			}
			if uint64(as.PageCount()) != vmaPages {
				t.Fatalf("rebuilt %d pages, VMAs cover %d", as.PageCount(), vmaPages)
			}
			as.Release()
		}
		for k, fr := range c.frames {
			if fr.MapCount() != 1 {
				t.Fatalf("frame of chunk %#x has map count %d after Release, want 1", uint64(k), fr.MapCount())
			}
		}
		if c.zero != nil && c.zero.MapCount() != 1 {
			t.Fatalf("zero frame has map count %d after Release, want 1", c.zero.MapCount())
		}
	})
}
