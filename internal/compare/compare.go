// Package compare implements the frame-aware state-comparison subsystem:
// dirty-set discovery, the frame-identity fast path, the byte compare of
// written pages, and a deterministic concurrent host-side pipeline.
//
// The package separates two kinds of cost. The *simulated* cost — how many
// dirty pages the injected hashers of §4.4 process and how many bytes they
// hash — follows the paper's model exactly: every dirty page mapped on both
// sides is charged 2× its size (one hasher per process), no matter how the
// host computes the verdict. The *host* cost is whatever this package
// actually spends, and that is where the frame-aware shortcuts apply:
//
//   - identity fast path: two page-table entries holding the same
//     *mem.Frame are content-equal by the COW invariant (a write would
//     have redirected one side to a private copy), so no bytes are read;
//   - byte compare: two different frames are compared byte for byte, one
//     read of each side and exact (no hash collision can pass a page that
//     differs); the host computes no hash that only a comparison would read;
//   - concurrent comparison: pages whose bytes must be read are fanned
//     out over a worker pool of min(4, GOMAXPROCS, jobs/32) goroutines,
//     with the mismatch chosen by minimal dirty-set index so the result
//     is independent of the pool's size and of scheduling.
//
// Callers receive both books: Result.DirtyPages and HashedBytes feed the
// simulated timing/energy accounting, while IdentitySkips describes the
// host's shortcut.
package compare

import (
	"bytes"
	"runtime"
	"slices"
	"sync"

	"parallaft/internal/mem"
)

// Discovery selects how the reference side's dirty pages are found.
type Discovery int

const (
	// FrameDiff diffs the segment-start and segment-end checkpoints'
	// page tables (AArch64-style map-count tracking, §4.3).
	FrameDiff Discovery = iota
	// SoftDirty reads the kernel's soft-dirty bits inherited by the end
	// checkpoint (x86-style tracking).
	SoftDirty
	// FullMemory compares every mapped page — the paper's ablation. The
	// candidate set is the union of BOTH sides' mappings, so a page the
	// checker mapped but the reference never had is still examined
	// (and reported as a structural mismatch) instead of escaping.
	FullMemory
)

// Request describes one state comparison.
type Request struct {
	// Base is the segment-start snapshot; only FrameDiff discovery uses it.
	Base *mem.AddressSpace
	// Ref is the segment-end checkpoint: the reference state.
	Ref *mem.AddressSpace
	// Chk is the process under test (checker, or arbitration referee).
	Chk *mem.AddressSpace

	Discovery Discovery
	// CheckerMode is the dirty query mode for the checker side, whose
	// modified pages are unioned into the candidate set so stray checker
	// writes are caught (§4.4).
	CheckerMode mem.DirtyMode

	// Seed is the page-hash seed. Run decides pages by identity and bytes
	// and never reads it.
	Seed uint64
}

// MismatchKind classifies a memory mismatch.
type MismatchKind int

const (
	// MismatchStructural: the page is mapped on only one side.
	MismatchStructural MismatchKind = iota
	// MismatchContent: both sides map the page but its contents differ.
	MismatchContent
)

// Mismatch reports the first differing page in dirty-set order.
type Mismatch struct {
	Kind MismatchKind
	VPN  uint64
}

// Result carries the outcome and both cost books of one comparison.
type Result struct {
	// DirtyPages is the size of the candidate set (simulated model).
	DirtyPages uint64
	// HashedBytes is the simulated hashing volume: 2× page size for every
	// candidate page mapped on both sides, regardless of host shortcuts.
	HashedBytes uint64

	// IdentitySkips counts pages proven equal by frame identity alone.
	IdentitySkips uint64
	// CacheHits counts per-side hashes served from a frame's memo. Run
	// hashes no page, so it is always 0.
	CacheHits uint64

	// Mismatch is the first differing page in dirty-set order, nil when
	// the memories agree.
	Mismatch *Mismatch
}

// pairJob is one page whose two frames differ, left to the worker pool.
type pairJob struct {
	idx      int // position in the dirty set, for deterministic reporting
	vpn      uint64
	ref, chk *mem.Frame
}

// chunkResult is one worker's first content mismatch, idx -1 for none.
type chunkResult struct {
	idx int
	vpn uint64
}

// concurrencyThreshold is the minimum number of pair jobs per extra
// worker; below it the spawn overhead outweighs the parallelism. Byte
// compares of cache-resident 16 KiB pages cost about 0.35 µs a pair, and
// two workers break even with one at about 56 jobs (BenchmarkComparatorRun's
// shape, measured at 8 to 256 pages on two CPUs), so a second worker starts
// at 64.
const concurrencyThreshold = 32

// Comparator performs state comparisons while reusing every piece of
// per-comparison scratch — the dirty-set union, the discovery buffers, and
// the pair job list — across calls. A long-lived Comparator makes the
// steady-state compare path allocation-free: after the first few segments
// the buffers reach the working-set size and all later comparisons run
// without touching the heap (the zero-value Comparator is ready to use).
//
// A Comparator is not safe for concurrent use; callers that compare from
// several goroutines use one Comparator each.
type Comparator struct {
	union   vpnUnion
	mainBuf []uint64
	chkBuf  []uint64
	vmaBuf  []mem.VMA
	jobs    []pairJob
	chunks  []chunkResult
}

// Run performs one state comparison, reusing the Comparator's scratch.
func (c *Comparator) Run(req Request) Result {
	var res Result
	dirty := c.dirtyVPNs(req)
	res.DirtyPages = uint64(len(dirty))

	// Resolve each candidate page: structural verdicts and identity skips
	// inline; pages whose frames differ are either decided on the spot
	// (sequential mode, the common case — no job list is ever allocated)
	// or collected for the worker pool. The loop keeps going after a
	// mismatch so the simulated accounting — which models hashers that
	// process the whole dirty set — is unaffected by where the first
	// difference sits.
	inline := workerCount(len(dirty)) <= 1
	jobs := c.jobs[:0]
	structuralIdx := -1
	var structuralVPN uint64
	contentIdx, contentVPN := -1, uint64(0)
	for i, vpn := range dirty {
		rf := req.Ref.FrameAt(vpn)
		cf := req.Chk.FrameAt(vpn)
		switch {
		case rf == nil && cf == nil:
			// e.g. both sides unmapped the page during the segment
		case rf == nil || cf == nil:
			if structuralIdx < 0 {
				structuralIdx, structuralVPN = i, vpn
			}
		default:
			res.HashedBytes += uint64(len(rf.Data())) * 2
			if rf == cf {
				// COW invariant: a shared frame cannot have diverged.
				res.IdentitySkips++
				continue
			}
			if inline {
				if contentIdx < 0 && !bytes.Equal(rf.Data(), cf.Data()) {
					contentIdx, contentVPN = i, vpn
				}
			} else {
				jobs = append(jobs, pairJob{idx: i, vpn: vpn, ref: rf, chk: cf})
			}
		}
	}
	if !inline {
		contentIdx, contentVPN = c.comparePairs(jobs)
	}
	c.jobs = jobs[:0]

	// The reported mismatch is the first in dirty-set order across both
	// kinds, exactly as a sequential scan would have found it.
	switch {
	case structuralIdx >= 0 && (contentIdx < 0 || structuralIdx < contentIdx):
		res.Mismatch = &Mismatch{Kind: MismatchStructural, VPN: structuralVPN}
	case contentIdx >= 0:
		res.Mismatch = &Mismatch{Kind: MismatchContent, VPN: contentVPN}
	}
	return res
}

// dirtyVPNs builds the candidate page set into the Comparator's reusable
// union buffer: the reference side's modified pages per the discovery mode,
// unioned with the checker side's modified pages, preserving
// first-appearance order. The returned slice aliases Comparator scratch and
// is valid until the next call.
//
// Every source list arrives sorted ascending (mem's Append* helpers sort,
// and VMA walks ascend), so the union dedups by binary-searching the
// already-emitted runs instead of keeping a map — same output, no
// per-comparison allocation once the buffers have grown.
func (c *Comparator) dirtyVPNs(req Request) []uint64 {
	chkDirty := req.Chk.AppendDirtyPages(req.CheckerMode, c.chkBuf[:0])
	c.chkBuf = chkDirty
	u := &c.union
	switch req.Discovery {
	case FrameDiff:
		main := mem.AppendDiffFrames(req.Base, req.Ref, c.mainBuf[:0])
		c.mainBuf = main
		u.reset(len(main) + len(chkDirty))
		u.addRun(main)
	case SoftDirty:
		main := req.Ref.AppendDirtyPages(mem.DirtySoft, c.mainBuf[:0])
		c.mainBuf = main
		u.reset(len(main) + len(chkDirty))
		u.addRun(main)
	case FullMemory:
		// The two sides' mappings almost always coincide, so the
		// reference's page count is the right size hint for the union.
		u.reset(req.Ref.PageCount() + len(chkDirty))
		c.addAllMapped(req.Ref)
		c.addAllMapped(req.Chk)
	}
	u.addRun(chkDirty)
	return u.out
}

// vpnUnion unions sorted page-number runs, preserving first-appearance
// order. out is a concatenation of ascending sub-runs (one per sealed
// source, duplicates removed), so membership in "everything emitted so far"
// is a binary search per earlier sub-run.
type vpnUnion struct {
	out  []uint64
	ends []int // end offset in out of each sealed sub-run
}

func (u *vpnUnion) reset(capacity int) {
	if cap(u.out) < capacity {
		u.out = make([]uint64, 0, capacity)
	} else {
		u.out = u.out[:0]
	}
	u.ends = u.ends[:0]
}

// seen reports whether vpn was emitted by any sealed run.
func (u *vpnUnion) seen(vpn uint64) bool {
	start := 0
	for _, end := range u.ends {
		if _, ok := slices.BinarySearch(u.out[start:end], vpn); ok {
			return true
		}
		start = end
	}
	return false
}

// seal closes the current run; later additions dedup against it.
func (u *vpnUnion) seal() {
	if n := len(u.out); len(u.ends) == 0 || u.ends[len(u.ends)-1] != n {
		u.ends = append(u.ends, n)
	}
}

// addRun appends the novel elements of one sorted, internally-unique list.
func (u *vpnUnion) addRun(l []uint64) {
	for _, v := range l {
		if !u.seen(v) {
			u.out = append(u.out, v)
		}
	}
	u.seal()
}

// addAllMapped adds every mapped page of an address space to the union in
// VMA order (ascending, since VMAs are sorted and disjoint), snapshotting
// the mapping list into the Comparator's reusable VMA buffer.
func (c *Comparator) addAllMapped(as *mem.AddressSpace) {
	u := &c.union
	c.vmaBuf = as.AppendVMAs(c.vmaBuf[:0])
	for _, v := range c.vmaBuf {
		for vpn := v.Base / as.PageSize(); vpn < v.End()/as.PageSize(); vpn++ {
			if !u.seen(vpn) {
				u.out = append(u.out, vpn)
			}
		}
	}
	u.seal()
}

// comparePairs decides the jobs and returns the minimal dirty-set index (and
// its vpn) among content mismatches, or -1.
func (c *Comparator) comparePairs(jobs []pairJob) (int, uint64) {
	if len(jobs) == 0 {
		return -1, 0
	}
	workers := workerCount(len(jobs))
	if workers == 1 {
		// Serial path: too few jobs to pay for goroutines.
		return compareChunk(jobs)
	}

	// Contiguous chunks keep per-worker results independent of scheduling;
	// merging by minimal index makes the reported mismatch deterministic.
	chunkLen := (len(jobs) + workers - 1) / workers
	if cap(c.chunks) < workers {
		c.chunks = make([]chunkResult, workers)
	}
	results := c.chunks[:workers]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunkLen
		hi := lo + chunkLen
		if hi > len(jobs) {
			hi = len(jobs)
		}
		if lo >= hi {
			results[w] = chunkResult{idx: -1}
			continue
		}
		wg.Add(1)
		go func(w int, chunk []pairJob) {
			defer wg.Done()
			results[w].idx, results[w].vpn = compareChunk(chunk)
		}(w, jobs[lo:hi])
	}
	wg.Wait()

	minIdx, minVPN := -1, uint64(0)
	for _, cr := range results {
		if cr.idx >= 0 && (minIdx < 0 || cr.idx < minIdx) {
			minIdx, minVPN = cr.idx, cr.vpn
		}
	}
	return minIdx, minVPN
}

// compareChunk decides a slice of jobs in order and returns the first
// content mismatch's dirty-set index (or -1) and its vpn. Reading bytes has
// no side effect, so it stops at the first mismatch.
func compareChunk(jobs []pairJob) (int, uint64) {
	for _, j := range jobs {
		if !bytes.Equal(j.ref.Data(), j.chk.Data()) {
			return j.idx, j.vpn
		}
	}
	return -1, 0
}

// defaultWorkers caps the worker pool.
const defaultWorkers = 4

// workerCount is the worker pool's size for a number of jobs: bounded by
// defaultWorkers, GOMAXPROCS and the number of jobs that make a worker
// worthwhile, and never below 1 (the serial path).
func workerCount(jobs int) int {
	return max(1, min(defaultWorkers, runtime.GOMAXPROCS(0), jobs/concurrencyThreshold))
}
