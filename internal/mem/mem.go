// Package mem implements the simulated paged virtual-memory subsystem.
//
// It provides the three mechanisms Parallaft's design is built on:
//
//   - Copy-on-write fork: an address space can be forked in O(pages) time,
//     sharing refcounted physical frames; the first write to a shared page
//     copies it. Forks are how Parallaft takes checkpoints and spawns
//     checkers (§3.1), and COW page-copy counts feed the fork-and-COW
//     overhead component of the evaluation (§5.2.1).
//
//   - Soft-dirty tracking: each page-table entry carries a soft-dirty bit,
//     set on write and cleared in bulk, mirroring Linux's soft-dirty PTE
//     mechanism Parallaft uses on x86_64 (§4.4).
//
//   - Map-count queries: the number of address spaces sharing a frame,
//     mirroring the PAGEMAP_SCAN-based technique Parallaft uses on AArch64
//     (§4.4): a page mapped exactly once is new or modified.
//
// Page size is configurable because it matters: the paper attributes part of
// Parallaft's higher overhead on Intel to 4 KiB pages versus Apple's 16 KiB
// (§5.8).
//
// Frames are recycled, not left to the collector. A frame this package
// allocated (for Map or a COW copy) goes to a free list, one per page size
// and shared by every address space in the process, when Unmap or Release
// drops its last reference; the next Map or COW copy takes it from there. A
// COW copy overwrites every byte, so it takes the frame as it is; Map clears
// it. Either way the frame comes back with a fresh ID and no hash memo, so
// nothing keyed by identity or content mistakes it for its former self. A
// NewSharedFrame never enters the list: its bytes belong to its creator (in
// checkd, a pagestore chunk that other checkers may be reading). Under the
// race detector a released frame is poisoned before it is handed out again,
// so a read through a released address space shows up as a golden diff.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"parallaft/internal/hashx"
)

// Prot is a page protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtNone Prot = 0
	ProtRW        = ProtRead | ProtWrite
)

// FaultKind classifies memory access faults.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota // no page at the address
	FaultProt                      // page mapped without required permission
)

// Fault describes a failed memory access. It is delivered to the guest as a
// SIGSEGV-equivalent by the OS layer.
type Fault struct {
	Addr  uint64
	Write bool
	Kind  FaultKind
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	kind := "unmapped address"
	if f.Kind == FaultProt {
		kind = "protection violation"
	}
	return fmt.Sprintf("mem: %s fault at %#x: %s", op, f.Addr, kind)
}

// Frame is a refcounted physical page frame. The refcount is the number of
// page-table entries (across all address spaces) mapping the frame.
//
// Every frame carries a stable identity (ID) and a lazily memoized content
// hash. Two PTEs holding the same *Frame are trivially content-equal — the
// foundation of the comparison subsystem's frame-identity fast path — and
// the memoized hash lets a frame whose hash is needed (a page-store key, an
// exported end state) be hashed once no matter how many checkpoints and
// checkers map it. A segment-end comparison reads bytes, not the memo.
type Frame struct {
	data []byte
	ref  int
	id   uint64

	// writeGen counts content mutations; a memo is valid only for the
	// generation it was computed at. The counter is written only by the
	// (single) goroutine executing the guest, and read by hashing workers
	// while the guest is paused, so a plain field suffices.
	writeGen uint64
	// The memoized hash, valid for exactly one (generation, seed). Plain
	// fields keep ContentHash allocation-free; safety rests on the pages
	// being a one-to-one vpn→frame map per address space, so a comparison
	// fan-out (one page per job) never hands the same frame to two
	// workers, and comparisons are serialized by worker join.
	memoGen  uint64
	memoSeed uint64
	memoSum  uint64
	memoOK   bool

	// recycled marks a frame this package allocated, which returns to the
	// free list when its last reference goes (see the package comment).
	recycled bool
	// lent, while these bytes are shared with a fork of the run (see
	// Cloner), counts the frames holding them, this one included; it is nil
	// while they are this frame's alone. Bytes another frame still holds are
	// never written in place, poisoned or put on the free list.
	lent *atomic.Int32
}

// frameIDs allocates stable frame identities process-wide.
var frameIDs atomic.Uint64

// freeFrames are the free lists of released frames, indexed by page shift.
// A list is a plain stack, not a sync.Pool: a pool empties at every garbage
// collection, so how many copies it served would depend on when collections
// fell. A frame is allocated only when its list is empty, so a list never
// holds more frames than were once live at the same time.
var freeFrames [64]struct {
	sync.Mutex
	frames []*Frame
}

// newFrame returns a one-page frame holding one reference under a fresh ID,
// recycled when the free list has one. A recycled frame keeps its previous
// bytes unless zero is set.
func (as *AddressSpace) newFrame(zero bool) *Frame {
	fl := &freeFrames[as.pageShift]
	fl.Lock()
	n := len(fl.frames)
	if n == 0 {
		fl.Unlock()
		return &Frame{data: make([]byte, as.pageSize), ref: 1, id: frameIDs.Add(1), recycled: true}
	}
	f := fl.frames[n-1]
	fl.frames[n-1] = nil
	fl.frames = fl.frames[:n-1]
	fl.Unlock()
	if zero {
		clear(f.data)
	}
	f.ref, f.id = 1, frameIDs.Add(1)
	f.writeGen++
	f.memoOK = false
	return f
}

// unref drops one reference to f and recycles it if that was the last.
func (as *AddressSpace) unref(f *Frame) {
	f.ref--
	if f.ref > 0 || !f.giveBack() {
		return
	}
	if f.recycled {
		if poisonReleased {
			f.data[0] = 0xa5
			for n := 1; n < len(f.data); n *= 2 {
				copy(f.data[n:], f.data[:n])
			}
		}
		fl := &freeFrames[as.pageShift]
		fl.Lock()
		fl.frames = append(fl.frames, f)
		fl.Unlock()
	}
}

// giveBack drops f's hold on lent bytes and reports whether they are f's
// alone afterwards: no fork holds them, and no fork can take them again.
func (f *Frame) giveBack() bool {
	l := f.lent
	if l == nil {
		return true
	}
	f.lent = nil
	return l.Add(-1) == 0
}

// NewSharedFrame wraps caller-owned bytes that will never be mutated again
// — a content-addressed chunk — as a frame, without copying them. The frame
// starts with one reference, the creator's, and the creator keeps it for as
// long as any address space maps the frame (AdoptFrame adds the page
// table's own). A mapped shared frame therefore always has MapCount > 1 and
// is never written in place: the first guest store to it copies, exactly as
// after a fork, and the memoized content hash stays valid for the bytes'
// lifetime.
func NewSharedFrame(data []byte) *Frame {
	return &Frame{data: data, ref: 1, id: frameIDs.Add(1)}
}

// MapCount returns the number of address spaces mapping this frame, plus the
// creator's reference on a NewSharedFrame frame.
func (f *Frame) MapCount() int { return f.ref }

// ID returns the frame's identity. IDs are unique process-wide and never
// reused, even when the frame itself is recycled; they are for diagnostics
// and tests — equality of two mapped frames is pointer equality.
func (f *Frame) ID() uint64 { return f.id }

// Data returns the frame contents. The slice aliases the frame; callers
// must treat it as read-only.
func (f *Frame) Data() []byte { return f.data }

// noteWrite invalidates any memoized hash; called on every content mutation.
func (f *Frame) noteWrite() { f.writeGen++ }

// ContentHash returns the XXH64 hash of the frame contents under seed,
// memoizing the result. The second return reports whether the memo served
// the request (no host-side hashing happened). The memo is invalidated by
// any write to the frame; COW keeps it trivially correct across sharers,
// because a write to a shared frame redirects the writer to a fresh frame
// and a write to a private frame bumps its generation.
//
// Callers must not invoke ContentHash on the same frame from two goroutines
// at once.
func (f *Frame) ContentHash(seed uint64) (sum uint64, cached bool) {
	if f.memoOK && f.memoGen == f.writeGen && f.memoSeed == seed {
		return f.memoSum, true
	}
	sum = hashx.Sum64(seed, f.data)
	f.memoGen, f.memoSeed, f.memoSum, f.memoOK = f.writeGen, seed, sum, true
	return sum, false
}

type pte struct {
	frame     *Frame
	prot      Prot
	softDirty bool
}

// VMA describes a mapped virtual region (the unit of mmap/munmap).
type VMA struct {
	Base   uint64
	Length uint64 // bytes, page-aligned
	Prot   Prot
	Name   string // diagnostic label: "heap", "stack", "mmap", file name...
}

// End returns the first address past the region.
func (v VMA) End() uint64 { return v.Base + v.Length }

// Stats aggregates memory-subsystem event counts for one address space.
// COW counts accumulate in the address space that performed the write.
type Stats struct {
	COWCopies  uint64 // pages copied due to copy-on-write
	COWBytes   uint64 // bytes copied due to copy-on-write
	PagesAlloc uint64 // pages Map backed with a zeroed frame
}

// tlbSize is the number of entries in each host-side translation cache.
// Purely a host optimisation: the TLB has no simulated cost or state — the
// cache hierarchy model in internal/cache is what the timing sees.
const tlbSize = 256

// tlbEntry caches one vpn→pte translation. A slot is live only when its gen
// matches the address space's current tlbGen, so invalidation is a counter
// bump instead of a memclr of both arrays.
type tlbEntry struct {
	vpn uint64
	p   *pte
	gen uint32
}

// AddressSpace is one guest process's virtual memory.
type AddressSpace struct {
	pageSize  uint64
	pageShift uint
	pages     map[uint64]*pte // keyed by virtual page number
	vmas      []VMA           // sorted by Base
	brk       uint64
	brkBase   uint64
	stats     Stats

	// direct-mapped host TLBs; invalidated on any page-table mutation
	tlbRead  [tlbSize]tlbEntry
	tlbWrite [tlbSize]tlbEntry
	tlbGen   uint32
}

// NewAddressSpace creates an empty address space with the given page size,
// which must be a power of two.
func NewAddressSpace(pageSize uint64) *AddressSpace {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a power of two", pageSize))
	}
	shift := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		shift++
	}
	return &AddressSpace{
		pageSize:  pageSize,
		pageShift: shift,
		pages:     make(map[uint64]*pte),
	}
}

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() uint64 { return as.pageSize }

// Stats returns the accumulated event counts.
func (as *AddressSpace) Stats() Stats { return as.stats }

// VPN returns the virtual page number containing addr.
func (as *AddressSpace) VPN(addr uint64) uint64 { return addr >> as.pageShift }

func (as *AddressSpace) invalidateTLB() {
	as.tlbGen++
	if as.tlbGen == 0 {
		// Generation counter wrapped: hard-clear both arrays so entries
		// filled under an ancient generation cannot come back to life.
		as.tlbRead = [tlbSize]tlbEntry{}
		as.tlbWrite = [tlbSize]tlbEntry{}
		as.tlbGen = 1
	}
}

// Map maps [base, base+length) with the given protection, allocating fresh
// zero frames. base and length must be page-aligned, the range must not
// overlap an existing VMA, and length must be nonzero.
func (as *AddressSpace) Map(base, length uint64, prot Prot, name string) error {
	if err := as.Reserve(base, length, prot, name); err != nil {
		return err
	}
	for vpn := base >> as.pageShift; vpn < (base+length)>>as.pageShift; vpn++ {
		as.pages[vpn] = &pte{
			frame:     as.newFrame(true),
			prot:      prot,
			softDirty: true, // a new page is "modified" from nothing
		}
		as.stats.PagesAlloc++
	}
	as.invalidateTLB()
	return nil
}

// Reserve is Map without the pages: it records the mapping, under the same
// alignment and overlap rules, and leaves every page of it for AdoptFrame to
// back. An address space rebuilt from a snapshot starts this way instead of
// allocating zero frames it is about to replace.
func (as *AddressSpace) Reserve(base, length uint64, prot Prot, name string) error {
	if base%as.pageSize != 0 || length%as.pageSize != 0 || length == 0 {
		return fmt.Errorf("mem: map [%#x,+%#x): not page-aligned or empty", base, length)
	}
	if base+length <= base {
		return fmt.Errorf("mem: map [%#x,+%#x): runs past the top of the address space", base, length)
	}
	if as.overlaps(base, length) {
		return fmt.Errorf("mem: map [%#x,+%#x): overlaps existing mapping", base, length)
	}
	as.insertVMA(VMA{Base: base, Length: length, Prot: prot, Name: name})
	return nil
}

// AdoptFrame backs the still-empty page vpn of a reserved mapping with an
// existing frame, by reference, under prot and with a clean soft-dirty bit —
// the page-table half of a fork, one page at a time. The frame must be one
// page long and stay referenced from outside this address space (see
// NewSharedFrame), so the guest's first store to the page copies it.
func (as *AddressSpace) AdoptFrame(vpn uint64, f *Frame, prot Prot) error {
	addr := vpn << as.pageShift
	switch {
	case uint64(len(f.data)) != as.pageSize:
		return fmt.Errorf("mem: adopt page %#x: frame is %d bytes, page size is %d", addr, len(f.data), as.pageSize)
	case addr>>as.pageShift != vpn || as.findVMA(addr) == nil:
		return fmt.Errorf("mem: adopt page number %#x: outside every mapping", vpn)
	case as.pages[vpn] != nil:
		return fmt.Errorf("mem: adopt page %#x: already backed", addr)
	}
	f.ref++
	as.pages[vpn] = &pte{frame: f, prot: prot}
	as.invalidateTLB()
	return nil
}

// Unmap removes the VMA exactly covering [base, base+length).
func (as *AddressSpace) Unmap(base, length uint64) error {
	idx := -1
	for i, v := range as.vmas {
		if v.Base == base && v.Length == length {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("mem: unmap [%#x,+%#x): no such mapping", base, length)
	}
	for vpn := base >> as.pageShift; vpn < (base+length)>>as.pageShift; vpn++ {
		if p, ok := as.pages[vpn]; ok {
			as.unref(p.frame)
			delete(as.pages, vpn)
		}
	}
	as.vmas = append(as.vmas[:idx], as.vmas[idx+1:]...)
	as.invalidateTLB()
	return nil
}

// Protect changes the protection of every whole page within [base,
// base+length), which must lie inside a single VMA.
func (as *AddressSpace) Protect(base, length uint64, prot Prot) error {
	if base%as.pageSize != 0 || length%as.pageSize != 0 || length == 0 {
		return fmt.Errorf("mem: protect [%#x,+%#x): not page-aligned or empty", base, length)
	}
	v := as.findVMA(base)
	if v == nil || base+length > v.End() {
		return fmt.Errorf("mem: protect [%#x,+%#x): range not inside one mapping", base, length)
	}
	for vpn := base >> as.pageShift; vpn < (base+length)>>as.pageShift; vpn++ {
		if p, ok := as.pages[vpn]; ok {
			p.prot = prot
		}
	}
	if v.Base == base && v.Length == length {
		v.Prot = prot
	}
	as.invalidateTLB()
	return nil
}

// SetBrk initialises the program break region. Must be called once before
// Brk; base must be page-aligned.
func (as *AddressSpace) SetBrk(base uint64) {
	as.brkBase = base
	as.brk = base
}

// Brk grows (or queries, with newBrk == 0) the program break, mapping fresh
// pages as needed, and returns the current break. Shrinking is ignored,
// matching common kernel behaviour for simplicity.
func (as *AddressSpace) Brk(newBrk uint64) uint64 {
	if newBrk <= as.brk {
		return as.brk
	}
	oldEnd := (as.brk + as.pageSize - 1) &^ (as.pageSize - 1)
	newEnd := (newBrk + as.pageSize - 1) &^ (as.pageSize - 1)
	if newEnd > oldEnd {
		if err := as.Map(oldEnd, newEnd-oldEnd, ProtRW, "heap"); err != nil {
			// growth collided with an existing mapping: refuse, like a
			// kernel returning the unchanged break
			return as.brk
		}
	}
	as.brk = newBrk
	return as.brk
}

// CurrentBrk returns the current program break.
func (as *AddressSpace) CurrentBrk() uint64 { return as.brk }

// BrkBase returns the base of the program break region.
func (as *AddressSpace) BrkBase() uint64 { return as.brkBase }

// RestoreBrk restores the break fields of a reconstructed address space
// without mapping anything: the heap pages were already materialised from a
// snapshot (they are part of the VMA/page set), so growing via Brk here
// would collide with them. Used when rebuilding an address space from a
// serialized checkpoint.
func (as *AddressSpace) RestoreBrk(base, brk uint64) {
	as.brkBase = base
	as.brk = brk
}

func (as *AddressSpace) overlaps(base, length uint64) bool {
	end := base + length
	for _, v := range as.vmas {
		if base < v.End() && v.Base < end {
			return true
		}
	}
	return false
}

func (as *AddressSpace) insertVMA(v VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Base >= v.Base })
	as.vmas = append(as.vmas, VMA{})
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

func (as *AddressSpace) findVMA(addr uint64) *VMA {
	for i := range as.vmas {
		if addr >= as.vmas[i].Base && addr < as.vmas[i].End() {
			return &as.vmas[i]
		}
	}
	return nil
}

// VMAs returns a copy of the current mapping list, sorted by base address.
func (as *AddressSpace) VMAs() []VMA {
	return as.AppendVMAs(nil)
}

// AppendVMAs appends the current mapping list, sorted by base address, to
// buf and returns the extended slice. The allocation-free variant of VMAs
// for callers with a reusable buffer.
func (as *AddressSpace) AppendVMAs(buf []VMA) []VMA {
	return append(buf, as.vmas...)
}

// FindFree returns the lowest page-aligned base >= hint where a region of
// the given length would not overlap an existing VMA.
func (as *AddressSpace) FindFree(hint, length uint64) uint64 {
	base := (hint + as.pageSize - 1) &^ (as.pageSize - 1)
	for {
		if !as.overlaps(base, length) {
			return base
		}
		// jump past the first overlapping VMA
		end := base + length
		next := base + as.pageSize
		for _, v := range as.vmas {
			if base < v.End() && v.Base < end && v.End() > next {
				next = v.End()
			}
		}
		base = next
	}
}

// Fork creates a copy-on-write clone: the child shares every frame with the
// parent, and both sides will copy on their next write to a shared page.
// The child's soft-dirty bits are copied from the parent's (callers that
// want a clean slate call ClearSoftDirty on the clone).
func (as *AddressSpace) Fork() *AddressSpace {
	as.invalidateTLB()
	return as.copyWith(func(f *Frame) *Frame { f.ref++; return f })
}

// copyWith copies the address space's mappings, break and page table,
// backing each page with frameOf(its frame).
func (as *AddressSpace) copyWith(frameOf func(*Frame) *Frame) *AddressSpace {
	c := &AddressSpace{
		pageSize:  as.pageSize,
		pageShift: as.pageShift,
		pages:     make(map[uint64]*pte, len(as.pages)),
		vmas:      slices.Clone(as.vmas),
		brk:       as.brk,
		brkBase:   as.brkBase,
	}
	// One pte slab for the whole page table: a copy is O(pages) map inserts
	// plus a single allocation, not an allocation per page. The capacity is
	// exact, so the slab never reallocates and the stored pointers stay
	// valid.
	slab := make([]pte, 0, len(as.pages))
	for vpn, p := range as.pages {
		slab = append(slab, pte{frame: frameOf(p.frame), prot: p.prot, softDirty: p.softDirty})
		c.pages[vpn] = &slab[len(slab)-1]
	}
	return c
}

// Cloner copies address spaces of a run, such as a retired segment's
// checkpoints, for use on another goroutine. Its one old→new frame map keeps
// a frame two of them share one frame, with its write generation and hash
// memo, whose reference count is the copies mapping it: frame identity and
// map counts among the copies decide copy-on-write, dirty discovery and the
// comparison's shortcuts as they did among the originals. Source and copy
// share the pages' bytes, lent, until a store on either side gives that side
// bytes of its own (lookupWrite), or the side is released. Bytes every other
// holder has let go of are written in place and recycled again, so a source
// that outlives its copies stops copying. Copying only reads the source, so
// the source may run on while the copy runs on another goroutine.
type Cloner struct{ frames map[*Frame]*Frame }

// NewCloner returns a cloner with an empty frame map.
func NewCloner() *Cloner { return &Cloner{frames: make(map[*Frame]*Frame)} }

// Clone copies as, stats included, each page on the copy of its frame. When
// it lends source bytes it had not lent before, it flushes the source's
// TLBs, so that no store reaches them unchecked.
func (c *Cloner) Clone(as *AddressSpace) *AddressSpace {
	lent := false
	dst := as.copyWith(func(f *Frame) *Frame {
		nf := c.frames[f]
		if nf == nil {
			if f.lent == nil {
				f.lent, lent = new(atomic.Int32), true
				f.lent.Store(1)
			}
			f.lent.Add(1)
			nf = new(Frame)
			*nf = *f
			nf.ref = 0
			c.frames[f] = nf
		}
		nf.ref++
		return nf
	})
	if lent {
		as.invalidateTLB()
	}
	dst.stats = as.stats
	return dst
}

// Release drops every frame reference held by the address space, recycling
// the frames it was the last to map. After Release the address space and
// every frame read from it must not be used. It exists so that discarded
// checkpoints and dead checkers stop inflating map counts.
func (as *AddressSpace) Release() {
	for _, p := range as.pages {
		as.unref(p.frame)
	}
	clear(as.pages)
	as.vmas = nil
	as.invalidateTLB()
}

func (as *AddressSpace) lookupRead(addr uint64) (*pte, *Fault) {
	vpn := addr >> as.pageShift
	e := &as.tlbRead[vpn&(tlbSize-1)]
	if e.gen == as.tlbGen && e.vpn == vpn && e.p != nil {
		return e.p, nil
	}
	p, ok := as.pages[vpn]
	if !ok {
		return nil, &Fault{Addr: addr, Kind: FaultUnmapped}
	}
	if p.prot&ProtRead == 0 {
		return nil, &Fault{Addr: addr, Kind: FaultProt}
	}
	e.vpn, e.p, e.gen = vpn, p, as.tlbGen
	return p, nil
}

// lookupWrite resolves a PTE for writing, performing copy-on-write if the
// frame is shared. The returned bool reports whether a COW copy happened,
// so the interpreter can charge the page-copy cost to the faulting process.
func (as *AddressSpace) lookupWrite(addr uint64) (*pte, bool, *Fault) {
	vpn := addr >> as.pageShift
	e := &as.tlbWrite[vpn&(tlbSize-1)]
	if e.gen == as.tlbGen && e.vpn == vpn && e.p != nil {
		// A cached write translation is never COW-shared nor lent: any
		// Fork or Cloner.Clone since the fill invalidated the TLB.
		e.p.softDirty = true
		e.p.frame.noteWrite()
		return e.p, false, nil
	}
	p, ok := as.pages[vpn]
	if !ok {
		return nil, false, &Fault{Addr: addr, Write: true, Kind: FaultUnmapped}
	}
	if p.prot&ProtWrite == 0 {
		return nil, false, &Fault{Addr: addr, Write: true, Kind: FaultProt}
	}
	cow := false
	switch f := p.frame; {
	case f.ref > 1:
		nf := as.newFrame(false) // the copy overwrites every byte
		copy(nf.data, f.data)
		f.ref--
		p.frame = nf
		as.stats.COWCopies++
		as.stats.COWBytes += as.pageSize
		cow = true
	case f.lent != nil:
		// The frame is ours alone, its bytes perhaps a fork's too. Taking
		// bytes of our own is no simulated copy-on-write: nothing is
		// counted. The copy is made before the hold is dropped, so the
		// other holder cannot start writing in place while it is read.
		if f.lent.Load() > 1 {
			buf := as.newFrame(false).data
			copy(buf, f.data)
			f.data = buf
		}
		f.giveBack()
	}
	p.softDirty = true
	p.frame.noteWrite()
	e.vpn, e.p, e.gen = vpn, p, as.tlbGen
	return p, cow, nil
}

// LoadU64 reads a little-endian 64-bit word. Unaligned and page-straddling
// accesses are supported.
func (as *AddressSpace) LoadU64(addr uint64) (uint64, *Fault) {
	off := addr & (as.pageSize - 1)
	if off+8 <= as.pageSize {
		p, f := as.lookupRead(addr)
		if f != nil {
			return 0, f
		}
		return binary.LittleEndian.Uint64(p.frame.data[off:]), nil
	}
	var b [8]byte
	if f := as.Read(addr, b[:]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// StoreU64 writes a little-endian 64-bit word, returning whether a COW copy
// occurred.
func (as *AddressSpace) StoreU64(addr, val uint64) (bool, *Fault) {
	off := addr & (as.pageSize - 1)
	if off+8 <= as.pageSize {
		p, cow, f := as.lookupWrite(addr)
		if f != nil {
			return false, f
		}
		binary.LittleEndian.PutUint64(p.frame.data[off:], val)
		return cow, nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return as.writeSpan(addr, b[:])
}

// LoadByte reads one byte.
func (as *AddressSpace) LoadByte(addr uint64) (byte, *Fault) {
	p, f := as.lookupRead(addr)
	if f != nil {
		return 0, f
	}
	return p.frame.data[addr&(as.pageSize-1)], nil
}

// StoreByte writes one byte, returning whether a COW copy occurred.
func (as *AddressSpace) StoreByte(addr uint64, val byte) (bool, *Fault) {
	p, cow, f := as.lookupWrite(addr)
	if f != nil {
		return false, f
	}
	p.frame.data[addr&(as.pageSize-1)] = val
	return cow, nil
}

// Read fills dst from guest memory starting at addr.
func (as *AddressSpace) Read(addr uint64, dst []byte) *Fault {
	for len(dst) > 0 {
		p, f := as.lookupRead(addr)
		if f != nil {
			return f
		}
		off := addr & (as.pageSize - 1)
		n := copy(dst, p.frame.data[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
	return nil
}

// Write copies src into guest memory starting at addr, with COW handling.
func (as *AddressSpace) Write(addr uint64, src []byte) *Fault {
	_, f := as.writeSpan(addr, src)
	return f
}

func (as *AddressSpace) writeSpan(addr uint64, src []byte) (bool, *Fault) {
	anyCow := false
	for len(src) > 0 {
		p, cow, f := as.lookupWrite(addr)
		if f != nil {
			return anyCow, f
		}
		anyCow = anyCow || cow
		off := addr & (as.pageSize - 1)
		n := copy(p.frame.data[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
	return anyCow, nil
}

// ClearSoftDirty clears the soft-dirty bit on every page, mirroring a write
// to /proc/pid/clear_refs. Parallaft calls this at the start of each
// segment (§5.2.1 "runtime work").
func (as *AddressSpace) ClearSoftDirty() {
	for _, p := range as.pages {
		p.softDirty = false
	}
}

// DirtyMode selects the dirty-page discovery mechanism (§4.4).
type DirtyMode uint8

// Dirty-page tracking modes.
const (
	// DirtySoft uses per-PTE soft-dirty bits (Linux x86_64 mechanism).
	DirtySoft DirtyMode = iota
	// DirtyMapCount reports pages whose frame is mapped exactly once
	// (the PAGEMAP_SCAN ioctl technique used on AArch64): such a page is
	// private to this address space, hence new or modified since the fork.
	DirtyMapCount
)

// DirtyPages returns the sorted virtual page numbers considered modified
// under the given mode.
func (as *AddressSpace) DirtyPages(mode DirtyMode) []uint64 {
	return as.AppendDirtyPages(mode, nil)
}

// AppendDirtyPages appends the modified page numbers under the given mode to
// buf and returns the extended slice, sorted within the appended region.
// Passing a reused buf[:0] makes steady-state dirty discovery allocation-free.
func (as *AddressSpace) AppendDirtyPages(mode DirtyMode, buf []uint64) []uint64 {
	out := buf
	for vpn, p := range as.pages {
		switch mode {
		case DirtySoft:
			if p.softDirty {
				out = append(out, vpn)
			}
		case DirtyMapCount:
			if p.frame.ref == 1 {
				out = append(out, vpn)
			}
		}
	}
	slices.Sort(out[len(buf):])
	return out
}

// AppendDiffFrames appends to buf, sorted within the appended region, the
// virtual page numbers whose backing frame differs between two address
// spaces, including pages mapped in only one of them, and returns the
// extended slice. For two checkpoints of the same process taken at
// consecutive segment boundaries this is exactly the set of pages the
// process modified (COW gave them new frames), created, or unmapped during
// the segment — the page-level diff Parallaft's AArch64 map-count technique
// computes.
func AppendDiffFrames(a, b *AddressSpace, buf []uint64) []uint64 {
	out := buf
	for vpn, pa := range a.pages {
		pb, ok := b.pages[vpn]
		if !ok || pb.frame != pa.frame {
			out = append(out, vpn)
		}
	}
	for vpn := range b.pages {
		if _, ok := a.pages[vpn]; !ok {
			out = append(out, vpn)
		}
	}
	slices.Sort(out[len(buf):])
	return out
}

// FrameAt returns the frame backing the given virtual page number, or nil
// if unmapped. Frames are shared COW across forks, so comparing the frames
// two address spaces hold at the same page is an O(1) content-equality
// fast path.
func (as *AddressSpace) FrameAt(vpn uint64) *Frame {
	p, ok := as.pages[vpn]
	if !ok {
		return nil
	}
	return p.frame
}

// FrameRef is one mapped page of an address space, exposed for snapshot
// export: its page number, effective protection, and backing frame.
type FrameRef struct {
	VPN   uint64
	Prot  Prot
	Frame *Frame
}

// FrameRefs enumerates every mapped page sorted by page number. The frames
// alias the address space's live page table; callers must not mutate their
// contents and should consume the snapshot while the guest is paused.
func (as *AddressSpace) FrameRefs() []FrameRef {
	out := make([]FrameRef, 0, len(as.pages))
	for vpn, p := range as.pages {
		out = append(out, FrameRef{VPN: vpn, Prot: p.prot, Frame: p.frame})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VPN < out[j].VPN })
	return out
}

// MapCountOf returns the frame map count for the page containing addr, or 0
// if unmapped.
func (as *AddressSpace) MapCountOf(addr uint64) int {
	p, ok := as.pages[addr>>as.pageShift]
	if !ok {
		return 0
	}
	return p.frame.ref
}

// PageCount returns the number of mapped pages.
func (as *AddressSpace) PageCount() int { return len(as.pages) }

// PSSBytes returns the proportional set size: each page's size divided by
// the number of address spaces sharing its frame. The paper samples summed
// PSS to measure memory overhead because COW sharing makes RSS misleading
// (§5.4, footnote 12).
//
// The sum runs in ascending page order, walking the sorted VMA list: a map
// count such as 3 makes its term inexact, and summing in map order would
// make the total's low bits differ from call to call.
func (as *AddressSpace) PSSBytes() float64 {
	var pss float64
	for _, v := range as.vmas {
		for vpn := v.Base >> as.pageShift; vpn < v.End()>>as.pageShift; vpn++ {
			if p := as.pages[vpn]; p != nil {
				pss += float64(as.pageSize) / float64(p.frame.ref)
			}
		}
	}
	return pss
}
