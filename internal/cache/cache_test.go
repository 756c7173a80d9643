package cache

import (
	"slices"
	"testing"
	"unsafe"
)

// tiny two-core machine: core 0 big (cluster 0), core 1 little (cluster 1)
func newTestHierarchy() *Hierarchy {
	cfg := Config{
		LineSize: 64,
		L1Big:    Geometry{Sets: 8, Ways: 2}, // 1 KiB
		L1Little: Geometry{Sets: 4, Ways: 2}, // 512 B
		L2: []Geometry{
			{Sets: 32, Ways: 4}, // big cluster: 8 KiB
			{Sets: 16, Ways: 2}, // little cluster: 2 KiB
		},
	}
	return New(cfg, []bool{true, false}, []int{0, 1})
}

func TestGeometrySize(t *testing.T) {
	g := Geometry{Sets: 128, Ways: 8}
	if got := g.SizeBytes(64); got != 64*1024 {
		t.Errorf("SizeBytes = %d, want 65536", got)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets accepted")
		}
	}()
	newSetAssoc(Geometry{Sets: 3, Ways: 1})
}

func TestColdMissThenHit(t *testing.T) {
	h := newTestHierarchy()
	if lvl := h.Access(0, 1, 0x1000); lvl != DRAM {
		t.Errorf("cold access = %v, want DRAM", lvl)
	}
	if lvl := h.Access(0, 1, 0x1000); lvl != L1Hit {
		t.Errorf("second access = %v, want L1", lvl)
	}
	if lvl := h.Access(0, 1, 0x1008); lvl != L1Hit {
		t.Errorf("same-line access = %v, want L1", lvl)
	}
}

func TestL2BacksL1(t *testing.T) {
	h := newTestHierarchy()
	// fill far beyond L1 (1 KiB) but within L2 (8 KiB)
	for addr := uint64(0); addr < 4*1024; addr += 64 {
		h.Access(0, 1, addr)
	}
	// the first lines were evicted from L1 but must hit in L2
	if lvl := h.Access(0, 1, 0); lvl != L2Hit {
		t.Errorf("re-access after L1 eviction = %v, want L2", lvl)
	}
}

func TestCapacityEviction(t *testing.T) {
	h := newTestHierarchy()
	// stream far beyond L2 capacity
	for addr := uint64(0); addr < 64*1024; addr += 64 {
		h.Access(0, 1, addr)
	}
	if lvl := h.Access(0, 1, 0); lvl != DRAM {
		t.Errorf("access after full eviction = %v, want DRAM", lvl)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// L1 big: 8 sets x 2 ways. Three lines mapping to the same set:
	// addresses differing by sets*linesize = 512.
	h := newTestHierarchy()
	a, b, c := uint64(0), uint64(512), uint64(1024)
	h.Access(0, 1, a) // miss
	h.Access(0, 1, b) // miss; set now [a,b]
	h.Access(0, 1, a) // hit; a most recent
	h.Access(0, 1, c) // evicts b (LRU)
	// Note: all three may also hit L2 now; check L1 via re-access levels.
	if lvl := h.Access(0, 1, a); lvl != L1Hit {
		t.Errorf("a should still be in L1, got %v", lvl)
	}
	if lvl := h.Access(0, 1, b); lvl == L1Hit {
		t.Error("b should have been evicted from L1")
	}
}

func TestClusterIsolation(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 1, 0x4000) // fill big cluster caches
	h.Access(0, 1, 0x4000)
	// same data accessed from the little core must miss both its L1 and
	// its (separate) L2
	if lvl := h.Access(1, 1, 0x4000); lvl != DRAM {
		t.Errorf("cross-cluster access = %v, want DRAM", lvl)
	}
}

func TestASIDSeparation(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 1, 0x8000)
	if lvl := h.Access(0, 2, 0x8000); lvl == L1Hit {
		t.Error("different ASID hit another process's line")
	}
}

func TestFlushASID(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 1, 0x100)
	h.Access(0, 2, 0x9000)
	h.FlushASID(1)
	if lvl := h.Access(0, 1, 0x100); lvl != DRAM {
		t.Errorf("flushed line still resident: %v", lvl)
	}
	if lvl := h.Access(0, 2, 0x9000); lvl == DRAM {
		t.Error("flush removed another ASID's line")
	}
}

func TestAccessRangeWorstLevel(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0, 1, 0x2000) // line resident
	// range spanning the resident line and the next (cold) one
	if lvl := h.AccessRange(0, 1, 0x2038, 16); lvl != DRAM {
		t.Errorf("spanning range = %v, want worst (DRAM)", lvl)
	}
	if lvl := h.AccessRange(0, 1, 0x2000, 8); lvl != L1Hit {
		t.Errorf("resident range = %v, want L1", lvl)
	}
}

func TestLevelString(t *testing.T) {
	if L1Hit.String() != "L1" || L2Hit.String() != "L2" || DRAM.String() != "DRAM" {
		t.Error("level names wrong")
	}
}

func TestWorkingSetBehaviourMatchesCapacity(t *testing.T) {
	// The differentiation Parallaft's scheduler depends on: a working set
	// that fits the big L1 but not the little one.
	h := newTestHierarchy()
	sweep := func(core int, asid uint64, bytes uint64) (l1Frac float64) {
		var hits, total int
		for pass := 0; pass < 8; pass++ {
			for addr := uint64(0); addr < bytes; addr += 64 {
				if h.Access(core, asid, addr) == L1Hit {
					hits++
				}
				total++
			}
		}
		return float64(hits) / float64(total)
	}
	bigL1 := sweep(0, 10, 768)    // fits big L1 (1 KiB)
	littleL1 := sweep(1, 11, 768) // exceeds little L1 (512 B)
	if bigL1 < 0.8 {
		t.Errorf("big-core resident sweep L1 fraction %v, want >= 0.8", bigL1)
	}
	if littleL1 >= bigL1 {
		t.Errorf("little core should hit L1 less: %v vs %v", littleL1, bigL1)
	}
}

// model is what driveTrace drives: the hierarchy, or the reference LRU.
type model interface {
	Access(core int, asid, addr uint64) Level
	AccessRange(core int, asid, addr uint64, size int) Level
	FlushASID(asid uint64)
}

// driveTrace runs a seeded pseudo-random access trace — a few ASIDs over a
// working set a little larger than the L2s, both cores, single accesses and
// line-straddling ranges, an ASID flush now and then — and returns the level
// every access was satisfied at.
func driveTrace(h model, seed uint64, n int) []Level {
	out := make([]Level, 0, n)
	x := seed
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < n; i++ {
		r := next()
		core := int(r & 1)
		asid := 1 + (r>>1)%3
		addr := (r >> 8) % (16 * 1024)
		switch {
		case r>>60 == 0:
			h.FlushASID(asid)
		case r>>59&1 == 0:
			out = append(out, h.Access(core, asid, addr))
		default:
			out = append(out, h.AccessRange(core, asid, addr, 16))
		}
	}
	return out
}

func allCaches(h *Hierarchy) []*setAssoc {
	return append(append([]*setAssoc(nil), h.l1...), h.l2...)
}

// refLRU is the plainest model of the same hierarchy: per set, the resident
// (tag, stamp) pairs, a miss filling over the smallest stamp once the set is
// full, and a flush dropping an ASID's pairs. It shares no code with the
// model under test beyond the geometry and the tag layout.
type refLRU struct {
	lineShift uint
	l1, l2    []*refCache
	coreL2    []int
}

type refCache struct {
	ways  int
	clock uint64
	sets  [][]refLine
}

type refLine struct{ tag, stamp uint64 }

func newRefCache(g Geometry) *refCache {
	return &refCache{ways: g.Ways, sets: make([][]refLine, g.Sets)}
}

func (c *refCache) access(tag uint64) bool {
	c.clock++
	set := &c.sets[tag%uint64(len(c.sets))]
	for i := range *set {
		if (*set)[i].tag == tag {
			(*set)[i].stamp = c.clock
			return true
		}
	}
	if len(*set) == c.ways {
		oldest := 0
		for i, l := range *set {
			if l.stamp < (*set)[oldest].stamp {
				oldest = i
			}
		}
		*set = slices.Delete(*set, oldest, oldest+1)
	}
	*set = append(*set, refLine{tag, c.clock})
	return false
}

func (r *refLRU) Access(core int, asid, addr uint64) Level {
	return r.AccessRange(core, asid, addr, 1)
}

func (r *refLRU) AccessRange(core int, asid, addr uint64, size int) Level {
	worst := L1Hit
	for a := addr >> r.lineShift; a <= (addr+uint64(size)-1)>>r.lineShift; a++ {
		tag := asid<<40 | a
		lvl := DRAM
		if r.l1[core].access(tag) {
			lvl = L1Hit
		} else if r.l2[r.coreL2[core]].access(tag) {
			lvl = L2Hit
		}
		worst = max(worst, lvl)
	}
	return worst
}

func (r *refLRU) FlushASID(asid uint64) {
	for _, c := range slices.Concat(r.l1, r.l2) {
		for i := range c.sets {
			c.sets[i] = slices.DeleteFunc(c.sets[i], func(l refLine) bool { return l.tag>>40 == asid })
		}
	}
}

// TestMatchesReferenceLRU: every access of a seeded trace, on a big and a
// little core, is satisfied at the level the plain reference model says.
// It pins the recency order: a set's tags run from the most recently used
// to the least, empty ways (tag 0) last, and a miss in a full set evicts
// the last way.
func TestMatchesReferenceLRU(t *testing.T) {
	if n := unsafe.Sizeof(newTestHierarchy().l1[0].tags[0]); n != 8 {
		t.Errorf("a way is %d bytes, want 8", n)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		h := newTestHierarchy() // core 0 big, core 1 little
		ref := &refLRU{lineShift: h.lineShift, coreL2: h.coreL2,
			l1: []*refCache{newRefCache(h.cfg.L1Big), newRefCache(h.cfg.L1Little)}}
		for _, g := range h.cfg.L2 {
			ref.l2 = append(ref.l2, newRefCache(g))
		}
		got, want := driveTrace(h, seed, 20_000), driveTrace(ref, seed, 20_000)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: access %d satisfied at %v, the reference says %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestNewSetsAreEmpty: every way of a new hierarchy holds tag 0, the empty
// way, so New needs no fill loop and the first access to any set misses.
func TestNewSetsAreEmpty(t *testing.T) {
	for i, c := range allCaches(newTestHierarchy()) {
		if j := slices.IndexFunc(c.tags, func(tag uint64) bool { return tag != 0 }); j >= 0 {
			t.Errorf("cache %d: way %d of a new hierarchy holds tag %#x", i, j, c.tags[j])
		}
	}
}

// TestMRUAccessWritesNothing: an access to each set's most recently used
// line hits and leaves every tag of every cache as it was, which is what
// lets the interpreter skip the call for the line it touched last.
func TestMRUAccessWritesNothing(t *testing.T) {
	h := newTestHierarchy()
	driveTrace(h, 3, 20_000)
	var before [][]uint64
	for _, c := range allCaches(h) {
		before = append(before, slices.Clone(c.tags))
	}
	probed := 0
	for core, c := range h.l1 {
		for set := 0; set < len(c.tags); set += c.ways {
			tag := c.tags[set]
			if tag == 0 {
				continue
			}
			probed++
			addr := (tag & (1<<asidShift - 1)) << h.lineShift
			if lvl := h.AccessRange(core, tag>>asidShift, addr+3, 4); lvl != L1Hit {
				t.Fatalf("core %d: the MRU line of set %d was satisfied at %v", core, set/c.ways, lvl)
			}
		}
	}
	if probed == 0 {
		t.Fatal("the trace left no line in any L1; the test probed nothing")
	}
	for i, c := range allCaches(h) {
		if !slices.Equal(c.tags, before[i]) {
			t.Errorf("cache %d: an MRU access moved tags\nbefore %x\nafter  %x", i, before[i], c.tags)
		}
	}
}
