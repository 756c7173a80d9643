// Package cache models the simulated cache hierarchy: a private L1 per
// core, a shared L2 per cluster (big cores share one L2, little cores share
// another, as on the Apple M2), and DRAM behind both.
//
// The model is a real set-associative tag simulation with LRU replacement,
// not a probabilistic one, so the performance effects the paper leans on
// emerge rather than being scripted:
//
//   - memory-intensive workloads slow down much more on little cores,
//     whose L1 and shared L2 are smaller (§4.5);
//   - concurrent checkers contend for the little cluster's shared L2;
//   - a checker migrated to a big core arrives cold and pollutes the big
//     cluster's L2, slowing the main process (§5.2.1);
//   - main and checker contend for DRAM bandwidth regardless of cluster.
//
// Lines are tagged with (address-space ID, line address): the simulated
// machine behaves like a physically-tagged hierarchy whose COW sharing is
// ignored, a deliberate simplification that errs on the side of *more*
// contention, matching the paper's observation that contention dominates.
package cache

import "fmt"

// Level identifies where an access was satisfied.
type Level uint8

// Access result levels.
const (
	L1Hit Level = iota
	L2Hit
	DRAM
	NumLevels
)

// String returns a short label for the level.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	case DRAM:
		return "DRAM"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Geometry describes one cache's organisation.
type Geometry struct {
	Sets int // number of sets (power of two)
	Ways int // associativity
}

// SizeBytes returns the cache capacity for a given line size.
func (g Geometry) SizeBytes(lineSize int) int { return g.Sets * g.Ways * lineSize }

// A line is valid iff its gen equals its cache's: invalidating one line
// writes gen 0 (never a live generation), invalidating all of them bumps the
// cache's generation — the trick mem's TLB uses, so a reset costs no memclr
// of the tag array.
type line struct {
	tag uint64 // (asid << 40) | lineAddr — see key()
	gen uint32
	lru uint64
}

type setAssoc struct {
	geom  Geometry
	lines []line // Sets*Ways, set-major
	gen   uint32 // current generation, never 0
	clock uint64
	mask  uint64

	// mru caches, per set, the way index of the most recent hit or fill.
	// Checking it before the way scan short-circuits the common case of
	// repeated accesses to the same line without changing which accesses
	// hit, miss, or evict.
	mru []uint16
	// asidLines counts valid lines per ASID (index = ASID), so flushing an
	// ASID can stop as soon as its last line is invalidated instead of
	// always walking the whole tag array.
	asidLines []uint32

	hits, misses uint64
}

func newSetAssoc(g Geometry) *setAssoc {
	if g.Sets <= 0 || g.Sets&(g.Sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d not a power of two", g.Sets))
	}
	if g.Ways <= 0 {
		panic("cache: ways must be positive")
	}
	return &setAssoc{
		geom:  g,
		lines: make([]line, g.Sets*g.Ways),
		gen:   1,
		mask:  uint64(g.Sets - 1),
		mru:   make([]uint16, g.Sets),
	}
}

// countLine adjusts the valid-line count of an ASID by d.
func (c *setAssoc) countLine(asid uint64, d int32) {
	if asid >= uint64(len(c.asidLines)) {
		grown := make([]uint32, asid+64)
		copy(grown, c.asidLines)
		c.asidLines = grown
	}
	c.asidLines[asid] = uint32(int32(c.asidLines[asid]) + d)
}

// fastHit probes only the set's MRU way. It is small enough for the
// compiler to inline at AccessRange's call sites, so the dominant case —
// another access to the line just touched — never pays a function call.
// A hit updates the same clock/LRU/hit state a full access would.
func (c *setAssoc) fastHit(tag uint64) bool {
	setIdx := int(tag & c.mask)
	w := &c.lines[setIdx*c.geom.Ways+int(c.mru[setIdx])]
	if w.gen == c.gen && w.tag == tag {
		c.clock++
		w.lru = c.clock
		c.hits++
		return true
	}
	return false
}

// access probes the cache and fills on miss; returns true on hit.
func (c *setAssoc) access(tag uint64) bool {
	c.clock++
	gen := c.gen
	setIdx := int(tag & c.mask)
	set := setIdx * c.geom.Ways
	ways := c.lines[set : set+c.geom.Ways]
	if m := c.mru[setIdx]; int(m) < len(ways) {
		if w := &ways[m]; w.gen == gen && w.tag == tag {
			w.lru = c.clock
			c.hits++
			return true
		}
	}
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i := range ways {
		valid := ways[i].gen == gen
		if valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			c.hits++
			c.mru[setIdx] = uint16(i)
			return true
		}
		if !valid {
			victim = i
			victimLRU = 0
		} else if ways[i].lru < victimLRU {
			victim = i
			victimLRU = ways[i].lru
		}
	}
	if v := &ways[victim]; v.gen == gen {
		c.countLine(v.tag>>asidShift, -1)
	}
	ways[victim] = line{tag: tag, gen: gen, lru: c.clock}
	c.mru[setIdx] = uint16(victim)
	c.countLine(tag>>asidShift, 1)
	c.misses++
	return false
}

// flush invalidates every line belonging to the given ASID (used when an
// address space is destroyed, to avoid stale hits for a recycled ASID).
// The per-ASID line count bounds the walk: a flush of an ASID whose lines
// were already evicted is O(1), and any other flush stops at the last line.
func (c *setAssoc) flush(asid uint64) {
	if asid >= uint64(len(c.asidLines)) {
		return
	}
	remaining := c.asidLines[asid]
	if remaining == 0 {
		return
	}
	for i := range c.lines {
		if c.lines[i].gen == c.gen && c.lines[i].tag>>asidShift == asid {
			c.lines[i].gen = 0
			remaining--
			if remaining == 0 {
				break
			}
		}
	}
	c.asidLines[asid] = 0
}

// reset invalidates every line by generation and clears the small side
// arrays, the LRU clock and the counters: the next access sequence hits,
// misses and evicts exactly as on a new cache.
func (c *setAssoc) reset() {
	c.gen++
	if c.gen == 0 {
		// Generation counter wrapped: hard-clear so lines filled under an
		// ancient generation cannot come back to life.
		clear(c.lines)
		c.gen = 1
	}
	clear(c.mru)
	clear(c.asidLines)
	c.clock, c.hits, c.misses = 0, 0, 0
}

// Config describes the whole hierarchy.
type Config struct {
	LineSize int        // bytes per cache line (power of two)
	L1Big    Geometry   // private L1 on each big core
	L1Little Geometry   // private L1 on each little core
	L2       []Geometry // one shared L2 per cluster, indexed by cluster ID
}

// Hierarchy is the full multi-core cache model. It is not safe for
// concurrent use; the simulation engine serialises access.
type Hierarchy struct {
	cfg       Config
	lineShift uint
	l1        []*setAssoc // per core
	l2        []*setAssoc // per cluster
	coreL2    []int       // core -> cluster
	stats     []LevelStats
}

// LevelStats counts accesses per satisfaction level for one core.
type LevelStats struct {
	Counts [NumLevels]uint64
}

// Total returns the total number of accesses.
func (s LevelStats) Total() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// MissRatio returns the fraction of accesses that reached DRAM.
func (s LevelStats) MissRatio() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Counts[DRAM]) / float64(t)
}

const asidShift = 40 // line addresses occupy the low 40 bits of a tag

// New builds a hierarchy for the given per-core layout. coreIsBig[i]
// selects the L1 geometry for core i; coreCluster[i] selects its L2.
func New(cfg Config, coreIsBig []bool, coreCluster []int) *Hierarchy {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	shift := uint(0)
	for s := cfg.LineSize; s > 1; s >>= 1 {
		shift++
	}
	h := &Hierarchy{
		cfg:       cfg,
		lineShift: shift,
		l1:        make([]*setAssoc, len(coreIsBig)),
		l2:        make([]*setAssoc, len(cfg.L2)),
		coreL2:    make([]int, len(coreCluster)),
		stats:     make([]LevelStats, len(coreIsBig)),
	}
	for i, big := range coreIsBig {
		if big {
			h.l1[i] = newSetAssoc(cfg.L1Big)
		} else {
			h.l1[i] = newSetAssoc(cfg.L1Little)
		}
	}
	for i, g := range cfg.L2 {
		h.l2[i] = newSetAssoc(g)
	}
	copy(h.coreL2, coreCluster)
	return h
}

func (h *Hierarchy) key(asid, addr uint64) uint64 {
	return asid<<asidShift | (addr >> h.lineShift & (1<<asidShift - 1))
}

// Access simulates a data access by the process with the given ASID running
// on the given core, and returns the level that satisfied it.
func (h *Hierarchy) Access(core int, asid, addr uint64) Level {
	tag := h.key(asid, addr)
	lvl := DRAM
	if h.l1[core].access(tag) {
		lvl = L1Hit
	} else if h.l2[h.coreL2[core]].access(tag) {
		lvl = L2Hit
	}
	h.stats[core].Counts[lvl]++
	return lvl
}

// AccessRange simulates an access spanning [addr, addr+size); it touches
// each distinct line and returns the worst (slowest) level observed. The
// body is Access unrolled per line with the tag built incrementally, since
// this is the interpreter's per-memory-instruction entry point.
func (h *Hierarchy) AccessRange(core int, asid, addr uint64, size int) Level {
	first := addr >> h.lineShift
	last := (addr + uint64(size) - 1) >> h.lineShift
	l1 := h.l1[core]
	l2 := h.l2[h.coreL2[core]]
	st := &h.stats[core]
	base := asid << asidShift
	if first == last { // the common case: the access stays in one line
		tag := base | first&(1<<asidShift-1)
		if l1.fastHit(tag) {
			st.Counts[L1Hit]++
			return L1Hit
		}
		lvl := DRAM
		if l1.access(tag) {
			lvl = L1Hit
		} else if l2.access(tag) {
			lvl = L2Hit
		}
		st.Counts[lvl]++
		return lvl
	}
	worst := L1Hit
	for lineAddr := first; lineAddr <= last; lineAddr++ {
		tag := base | lineAddr&(1<<asidShift-1)
		lvl := DRAM
		if l1.fastHit(tag) {
			lvl = L1Hit
		} else if l1.access(tag) {
			lvl = L1Hit
		} else if l2.access(tag) {
			lvl = L2Hit
		}
		st.Counts[lvl]++
		if lvl > worst {
			worst = lvl
		}
	}
	return worst
}

// FlushASID invalidates all lines belonging to the ASID across the whole
// hierarchy. Called when a process exits so a recycled ASID starts cold.
func (h *Hierarchy) FlushASID(asid uint64) {
	for _, c := range h.l1 {
		c.flush(asid)
	}
	for _, c := range h.l2 {
		c.flush(asid)
	}
}

// CoreStats returns a copy of the per-core access statistics.
func (h *Hierarchy) CoreStats(core int) LevelStats { return h.stats[core] }

// ResetStats zeroes all per-core statistics (the tag arrays keep their
// contents).
func (h *Hierarchy) ResetStats() {
	for i := range h.stats {
		h.stats[i] = LevelStats{}
	}
}

// Reset leaves the hierarchy indistinguishable from a newly built one without
// paying New's allocation and clearing of the tag arrays again: what a
// long-lived owner (Machine.Reset) calls between runs.
func (h *Hierarchy) Reset() {
	for _, c := range h.l1 {
		c.reset()
	}
	for _, c := range h.l2 {
		c.reset()
	}
	h.ResetStats()
}

// LineSize returns the configured line size in bytes.
func (h *Hierarchy) LineSize() int { return h.cfg.LineSize }
