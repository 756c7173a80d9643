// Package pagestore implements a content-addressed, reference-counted
// chunk store for checkpoint pages.
//
// Parallaft's checkpoints are COW forks: across a chain of N consecutive
// checkpoints, only the frames dirtied inside each segment get private
// copies — everything else is the same physical frame. The store exposes
// exactly that sharing to serialized form: chunks are keyed by the XXH64
// hash of their contents, so interning a chain of checkpoints stores each
// unique frame once no matter how many checkpoints (or check packets)
// reference it. Reference counts track how many owners an interned chunk
// has, so releasing a consumed packet's pages reclaims chunks as soon as
// the last reference drops — the serialized analogue of frame refcounts in
// internal/mem.
//
// PutFrame keys a frame by mem.Frame.ContentHash under the store's seed.
// When the seed equals the comparison subsystem's page-hash seed, the
// frame's single-entry hash memo is shared between export and comparison,
// so a frame is hashed at most once per write generation across both.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"parallaft/internal/hashx"
	"parallaft/internal/mem"
)

// Key is the content address of a chunk: the XXH64 hash of its bytes under
// the store's seed. Chunk equality is assumed from key equality (a 64-bit
// collision at simulation scale is treated as negligible, like every other
// use of the page hash in the comparison subsystem).
type Key uint64

// Stats describes the store's dedup accounting.
type Stats struct {
	Chunks       int    // chunks currently resident
	StoredBytes  uint64 // bytes currently resident (unique chunk contents)
	Puts         uint64 // total Put/PutFrame/Insert calls
	DedupHits    uint64 // puts served by an already-resident chunk
	DedupedBytes uint64 // bytes not stored thanks to dedup
}

type chunk struct {
	data []byte
	refs int
}

// Store is a content-addressed chunk store. It is safe for concurrent use:
// a checker daemon's workers read chunks while the intake goroutine interns
// new ones.
type Store struct {
	mu     sync.Mutex
	seed   uint64
	chunks map[Key]*chunk
	stats  Stats
	tm     storeMetrics
}

// New creates an empty store whose keys are XXH64 hashes under seed.
func New(seed uint64) *Store {
	return &Store{seed: seed, chunks: make(map[Key]*chunk)}
}

// Seed returns the store's hashing seed.
func (s *Store) Seed() uint64 { return s.seed }

// Put interns a copy of data and returns its key. If an identical chunk is
// already resident, its reference count is incremented and no bytes are
// copied or stored.
func (s *Store) Put(data []byte) Key {
	k := Key(hashx.Sum64(s.seed, data))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intern(k, data, true)
	return k
}

// PutFrame interns a page frame's contents, serving the key from the
// frame's memoized content hash when possible (shared with the comparison
// subsystem when the seeds match). The frame's bytes are only copied when
// the chunk is not already resident.
func (s *Store) PutFrame(f *mem.Frame) Key {
	sum, _ := f.ContentHash(s.seed)
	k := Key(sum)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intern(k, f.Data(), true)
	return k
}

// PutFrames interns a batch of page frames under a single lock acquisition,
// appending each frame's key to keys and returning the extended slice. The
// content hashes — the expensive part — are computed before the lock is
// taken, so a large checkpoint export serialises only the map inserts.
// Accounting is identical to calling PutFrame per frame.
func (s *Store) PutFrames(frames []*mem.Frame, keys []Key) []Key {
	base := len(keys)
	for _, f := range frames {
		sum, _ := f.ContentHash(s.seed)
		keys = append(keys, Key(sum))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, f := range frames {
		s.intern(keys[base+i], f.Data(), true)
	}
	return keys
}

// Insert interns a chunk under a sender-computed key (the socket transport
// trusts the client's content addressing; a wrong key only harms the
// sender's own verdicts). Resident chunks take a reference instead.
func (s *Store) Insert(k Key, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intern(k, data, true)
}

// intern adds one reference to the chunk at k, storing a copy of data if it
// is not resident. Callers hold s.mu. countPut selects Puts accounting.
func (s *Store) intern(k Key, data []byte, countPut bool) {
	if countPut {
		s.stats.Puts++
		s.tm.puts.Inc()
	}
	s.tm.refChurn.Inc()
	if c, ok := s.chunks[k]; ok {
		c.refs++
		s.stats.DedupHits++
		s.stats.DedupedBytes += uint64(len(data))
		s.tm.dedupHits.Inc()
		s.tm.dedupedBytes.Add(uint64(len(data)))
		return
	}
	s.chunks[k] = &chunk{data: append([]byte(nil), data...), refs: 1}
	s.stats.Chunks++
	s.stats.StoredBytes += uint64(len(data))
	s.tm.chunks.Add(1)
	s.tm.storedBytes.Add(float64(len(data)))
}

// Get returns the chunk contents for k, or nil when absent. The returned
// slice aliases the store; callers must treat it as read-only.
func (s *Store) Get(k Key) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chunks[k]; ok {
		return c.data
	}
	return nil
}

// Contains reports whether a chunk is resident.
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.chunks[k]
	return ok
}

// Ref adds a reference to a resident chunk.
func (s *Store) Ref(k Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chunks[k]
	if !ok {
		return fmt.Errorf("pagestore: ref of absent chunk %#x", uint64(k))
	}
	c.refs++
	s.tm.refChurn.Inc()
	return nil
}

// Release drops one reference from the chunk at k, reclaiming it when the
// count reaches zero. It reports whether the chunk was reclaimed. Releasing
// an absent key is a no-op.
func (s *Store) Release(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chunks[k]
	if !ok {
		return false
	}
	c.refs--
	s.tm.refChurn.Inc()
	if c.refs > 0 {
		return false
	}
	delete(s.chunks, k)
	s.stats.Chunks--
	s.stats.StoredBytes -= uint64(len(c.data))
	s.tm.chunks.Add(-1)
	s.tm.storedBytes.Add(-float64(len(c.data)))
	return true
}

// Len returns the number of resident chunks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chunks)
}

// Stats returns a snapshot of the dedup accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Each calls f for every resident chunk in ascending key order, on a
// snapshot taken when Each is called (f runs without the store lock; the
// data slices alias the store and must be treated as read-only).
func (s *Store) Each(f func(Key, []byte)) {
	s.mu.Lock()
	type kv struct {
		k Key
		d []byte
	}
	snap := make([]kv, 0, len(s.chunks))
	for k, c := range s.chunks {
		snap = append(snap, kv{k, c.data})
	}
	s.mu.Unlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i].k < snap[j].k })
	for _, c := range snap {
		f(c.k, c.d)
	}
}

// --- serialization ----------------------------------------------------------

// storeMagic identifies a serialized store ("PAFTPST" + format version 1).
var storeMagic = [8]byte{'P', 'A', 'F', 'T', 'P', 'S', 'T', 1}

// ErrBadStore reports a malformed serialized store.
var ErrBadStore = errors.New("pagestore: malformed store file")

// maxStoredChunk bounds a single chunk read back from disk, so a corrupt
// length field cannot exhaust host memory.
const maxStoredChunk = 64 << 20

// WriteTo serializes the store: header, then chunks sorted by key so the
// output is deterministic for a given content set.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.mu.Lock()
	keys := make([]Key, 0, len(s.chunks))
	for k := range s.chunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var n int64
	write := func(b []byte) error {
		m, err := w.Write(b)
		n += int64(m)
		return err
	}
	var hdr [8]byte
	defer s.mu.Unlock()
	if err := write(storeMagic[:]); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint64(hdr[:], s.seed)
	if err := write(hdr[:]); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(keys)))
	if err := write(hdr[:4]); err != nil {
		return n, err
	}
	for _, k := range keys {
		c := s.chunks[k]
		binary.LittleEndian.PutUint64(hdr[:], uint64(k))
		if err := write(hdr[:]); err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(c.refs))
		if err := write(hdr[:4]); err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(c.data)))
		if err := write(hdr[:4]); err != nil {
			return n, err
		}
		if err := write(c.data); err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadFrom deserializes a store written by WriteTo, restoring chunk
// contents and reference counts.
func ReadFrom(r io.Reader) (*Store, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadStore)
	}
	var b8 [8]byte
	if _, err := io.ReadFull(r, b8[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	s := New(binary.LittleEndian.Uint64(b8[:]))
	if _, err := io.ReadFull(r, b8[:4]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	count := binary.LittleEndian.Uint32(b8[:4])
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, b8[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		key := Key(binary.LittleEndian.Uint64(b8[:]))
		if _, err := io.ReadFull(r, b8[:4]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		refs := int(binary.LittleEndian.Uint32(b8[:4]))
		if _, err := io.ReadFull(r, b8[:4]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		size := binary.LittleEndian.Uint32(b8[:4])
		if size > maxStoredChunk {
			return nil, fmt.Errorf("%w: chunk %#x size %d exceeds limit", ErrBadStore, uint64(key), size)
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
		}
		if _, dup := s.chunks[key]; dup {
			return nil, fmt.Errorf("%w: duplicate chunk %#x", ErrBadStore, uint64(key))
		}
		s.chunks[key] = &chunk{data: data, refs: refs}
		s.stats.Chunks++
		s.stats.StoredBytes += uint64(size)
	}
	return s, nil
}
