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

import (
	"fmt"
)

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

// A set is its ways' tags in recency order: the most recently used line
// first, empty ways last. An empty way holds tag 0, which no line has, since
// ASIDs start at 1 (oskernel.Loader hands out no ASID 0). A hit or a fill
// moves the line to the front and an eviction drops the last way, so the
// order is exactly the one LRU stamps would give, with no stamp to write.
type setAssoc struct {
	ways int
	mask uint64
	tags []uint64 // Sets*Ways, set-major: (asid << 40) | lineAddr
	// asidLines counts valid lines per ASID (index = ASID), so flushing an
	// ASID can stop as soon as its last line is invalidated instead of
	// always walking the whole tag array.
	asidLines []uint32
}

func newSetAssoc(g Geometry) *setAssoc {
	if g.Sets <= 0 || g.Sets&(g.Sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d not a power of two", g.Sets))
	}
	if g.Ways <= 0 {
		panic("cache: ways must be positive")
	}
	return &setAssoc{
		ways: g.Ways,
		mask: uint64(g.Sets - 1),
		tags: make([]uint64, g.Sets*g.Ways),
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

// fastHit reports whether tag is its set's most recently used line. Such a
// hit changes no state, so this is one compare and no write, small enough
// for the compiler to inline at AccessRange's call sites.
func (c *setAssoc) fastHit(tag uint64) bool {
	return c.tags[int(tag&c.mask)*c.ways] == tag
}

// access probes the cache and fills on miss; returns true on hit. The line
// ends up first in its set: the more recent lines shift down one way over
// the line's old way on a hit, over the first empty way on a fill, and over
// the last (least recently used) way on an eviction.
func (c *setAssoc) access(tag uint64) bool {
	set := int(tag&c.mask) * c.ways
	ways := c.tags[set : set+c.ways]
	i := 0
	for i < len(ways)-1 && ways[i] != tag && ways[i] != 0 {
		i++
	}
	hit := ways[i] == tag
	if !hit {
		if old := ways[i]; old != 0 {
			c.countLine(old>>asidShift, -1)
		}
		c.countLine(tag>>asidShift, 1)
	}
	for ; i > 0; i-- {
		ways[i] = ways[i-1]
	}
	ways[0] = tag
	return hit
}

// flush invalidates every line belonging to the given ASID (used when an
// address space is destroyed, to avoid stale hits for a recycled ASID),
// compacting each set so the lines that stay keep their order. The per-ASID
// line count bounds the walk: a flush of an ASID whose lines were already
// evicted is O(1), and any other flush stops at the set of its last line.
func (c *setAssoc) flush(asid uint64) {
	if asid >= uint64(len(c.asidLines)) {
		return
	}
	remaining := c.asidLines[asid]
	for set := 0; remaining > 0; set += c.ways {
		ways := c.tags[set : set+c.ways]
		kept := 0
		for _, t := range ways {
			if t>>asidShift == asid {
				remaining--
				continue
			}
			ways[kept] = t
			kept++
		}
		clear(ways[kept:])
	}
	c.asidLines[asid] = 0
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
}

const asidShift = 40 // line addresses occupy the low 40 bits of a tag

// New builds a hierarchy for the given per-core layout. coreIsBig[i]
// selects the L1 geometry for core i; coreCluster[i] selects its L2.
func New(cfg Config, coreIsBig []bool, coreCluster []int) *Hierarchy {
	if cfg.LineSize < 2 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cache: line size must be a power of two of at least 2 bytes")
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

// Access simulates a one-byte data access by the process with the given
// ASID running on the given core, and returns the level that satisfied it.
func (h *Hierarchy) Access(core int, asid, addr uint64) Level {
	return h.AccessRange(core, asid, addr, 1)
}

// AccessRange simulates an access spanning [addr, addr+size); it touches
// each distinct line and returns the worst (slowest) level observed. It is
// the interpreter's per-memory-instruction entry point, so the tag is built
// incrementally and a one-line access skips the loop.
func (h *Hierarchy) AccessRange(core int, asid, addr uint64, size int) Level {
	first := addr >> h.lineShift
	last := (addr + uint64(size) - 1) >> h.lineShift
	l1 := h.l1[core]
	l2 := h.l2[h.coreL2[core]]
	base := asid << asidShift
	if first == last { // the common case: the access stays in one line
		tag := base | first&(1<<asidShift-1)
		if l1.fastHit(tag) || l1.access(tag) {
			return L1Hit
		}
		if l2.access(tag) {
			return L2Hit
		}
		return DRAM
	}
	worst := L1Hit
	for lineAddr := first; lineAddr <= last; lineAddr++ {
		tag := base | lineAddr&(1<<asidShift-1)
		lvl := DRAM
		if l1.fastHit(tag) || l1.access(tag) {
			lvl = L1Hit
		} else if l2.access(tag) {
			lvl = L2Hit
		}
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

// LineSize returns the configured line size in bytes.
func (h *Hierarchy) LineSize() int { return h.cfg.LineSize }
