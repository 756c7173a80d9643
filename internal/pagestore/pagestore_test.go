package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"parallaft/internal/mem"
)

const testPageSize = 4096

// fillPage writes a page worth of bytes derived from tag to addr.
func fillPage(t *testing.T, as *mem.AddressSpace, addr, tag uint64) {
	t.Helper()
	buf := make([]byte, testPageSize)
	for off := 0; off < testPageSize; off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], tag^uint64(off))
	}
	if f := as.Write(addr, buf); f != nil {
		t.Fatalf("write page %#x: %v", addr, f)
	}
}

// internCheckpoint puts every mapped frame of a checkpoint into the store
// and returns the keys, one per page.
func internCheckpoint(s *Store, cp *mem.AddressSpace) []Key {
	refs := cp.FrameRefs()
	keys := make([]Key, 0, len(refs))
	for _, fr := range refs {
		keys = append(keys, s.PutFrame(fr.Frame))
	}
	return keys
}

// TestDedupAcrossCheckpointChain interns a 3-checkpoint COW chain and
// asserts the store holds exactly the unique page contents: the initial
// pages plus the frames dirtied between checkpoints, nothing more.
func TestDedupAcrossCheckpointChain(t *testing.T) {
	const base = 0x10000
	as := mem.NewAddressSpace(testPageSize)
	if err := as.Map(base, 8*testPageSize, mem.ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		fillPage(t, as, base+i*testPageSize, 0x1000+i)
	}
	cp1 := as.Fork()

	// Segment 1 dirties pages 1 and 3.
	fillPage(t, as, base+1*testPageSize, 0x2001)
	fillPage(t, as, base+3*testPageSize, 0x2003)
	cp2 := as.Fork()

	// Segment 2 dirties pages 3 (again) and 5.
	fillPage(t, as, base+3*testPageSize, 0x3003)
	fillPage(t, as, base+5*testPageSize, 0x3005)
	cp3 := as.Fork()

	s := New(0x9a7a11af7)
	keys1 := internCheckpoint(s, cp1)
	keys2 := internCheckpoint(s, cp2)
	keys3 := internCheckpoint(s, cp3)

	// Unique contents: 8 initial pages + 2 dirtied in segment 1 + 2 dirtied
	// in segment 2. The other 12 of the 24 puts must dedup.
	const wantUnique = 12
	st := s.Stats()
	if s.Len() != wantUnique {
		t.Fatalf("chunks = %d, want %d", s.Len(), wantUnique)
	}
	if st.StoredBytes != wantUnique*testPageSize {
		t.Errorf("StoredBytes = %d, want %d (unique dirty frames only)",
			st.StoredBytes, wantUnique*testPageSize)
	}
	if st.Puts != 24 {
		t.Errorf("Puts = %d, want 24", st.Puts)
	}
	if st.DedupHits != 24-wantUnique {
		t.Errorf("DedupHits = %d, want %d", st.DedupHits, 24-wantUnique)
	}
	if st.DedupedBytes != (24-wantUnique)*testPageSize {
		t.Errorf("DedupedBytes = %d, want %d", st.DedupedBytes, (24-wantUnique)*testPageSize)
	}

	// Each checkpoint's key list resolves to that checkpoint's bytes.
	for i, fr := range cp2.FrameRefs() {
		got := s.Get(keys2[i])
		if !bytes.Equal(got, fr.Frame.Data()) {
			t.Fatalf("cp2 page %d: stored bytes differ from frame", i)
		}
	}

	// Releasing all three owners drops every chunk to zero: no leaks.
	for _, keys := range [][]Key{keys1, keys2, keys3} {
		for _, k := range keys {
			s.Release(k)
		}
	}
	if s.Len() != 0 {
		t.Errorf("after releasing all owners: %d chunks leaked", s.Len())
	}
	if st := s.Stats(); st.StoredBytes != 0 {
		t.Errorf("after releasing all owners: StoredBytes = %d, want 0", st.StoredBytes)
	}

	cp1.Release()
	cp2.Release()
	cp3.Release()
	as.Release()
}

// refCount is the reference count of the chunk at k (0 when absent).
func refCount(s *Store, k Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chunks[k]; ok {
		return c.refs
	}
	return 0
}

func TestRefcountLifecycle(t *testing.T) {
	s := New(1)
	data := []byte{1, 2, 3, 4}
	k := s.Put(data)
	if !s.Contains(k) || refCount(s, k) != 1 {
		t.Fatalf("after Put: contains=%v refs=%d", s.Contains(k), refCount(s, k))
	}
	if k2 := s.Put(data); k2 != k {
		t.Fatalf("identical content produced different keys: %#x vs %#x", k2, k)
	}
	if refCount(s, k) != 2 {
		t.Fatalf("refs after duplicate put = %d, want 2", refCount(s, k))
	}
	if err := s.Ref(k); err != nil {
		t.Fatal(err)
	}
	if reclaimed := s.Release(k); reclaimed || refCount(s, k) != 2 {
		t.Fatalf("release 3->2: reclaimed=%v refs=%d", reclaimed, refCount(s, k))
	}
	s.Release(k)
	if reclaimed := s.Release(k); !reclaimed {
		t.Fatal("final release did not reclaim the chunk")
	}
	if s.Contains(k) || s.Len() != 0 {
		t.Fatal("chunk survived its final release")
	}
	if s.Release(k) {
		t.Fatal("release of absent key reported a reclaim")
	}
	if err := s.Ref(k); err == nil {
		t.Fatal("ref of absent key succeeded")
	}
}

func TestInsertTrustsSenderKey(t *testing.T) {
	s := New(7)
	s.Insert(Key(42), []byte("hello"))
	if got := s.Get(Key(42)); string(got) != "hello" {
		t.Fatalf("Get after Insert = %q", got)
	}
	// A second insert under the same key is a dedup hit, not a replacement.
	s.Insert(Key(42), []byte("hello"))
	if refCount(s, Key(42)) != 2 {
		t.Fatalf("refs = %d, want 2", refCount(s, Key(42)))
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	s := New(0xfeed)
	k1 := s.Put([]byte("alpha"))
	k2 := s.Put([]byte("beta"))
	s.Put([]byte("alpha")) // bump k1 to two refs

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Deterministic: the same store serializes to the same bytes.
	var buf2 bytes.Buffer
	if _, err := s.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteTo is not deterministic")
	}

	got, err := ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed() != 0xfeed {
		t.Errorf("seed = %#x, want 0xfeed", got.Seed())
	}
	if string(got.Get(k1)) != "alpha" || string(got.Get(k2)) != "beta" {
		t.Error("contents did not survive the round trip")
	}
	if refCount(got, k1) != 2 || refCount(got, k2) != 1 {
		t.Errorf("refs = %d,%d, want 2,1", refCount(got, k1), refCount(got, k2))
	}
	if st := got.Stats(); st.StoredBytes != uint64(len("alpha")+len("beta")) {
		t.Errorf("StoredBytes = %d after reload", st.StoredBytes)
	}
}

func TestReadFromRejectsCorruptInput(t *testing.T) {
	s := New(3)
	s.Put([]byte("payload"))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTASTORE"), full[9:]...),
		"truncated": full[:len(full)-3],
	}
	for name, in := range cases {
		if _, err := ReadFrom(bytes.NewReader(in)); !errors.Is(err, ErrBadStore) {
			t.Errorf("%s: err = %v, want ErrBadStore", name, err)
		}
	}
}

// TestPutFramesMatchesPutFrame interns the same checkpoint through the
// batch API and the per-frame API into two stores and requires identical
// keys, contents, and accounting.
func TestPutFramesMatchesPutFrame(t *testing.T) {
	const base = 0x20000
	as := mem.NewAddressSpace(testPageSize)
	if err := as.Map(base, 6*testPageSize, mem.ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		// Pages 4 and 5 repeat page 0's content so the batch path also
		// exercises dedup hits.
		tag := 0x4000 + i%4
		fillPage(t, as, base+i*testPageSize, tag)
	}

	perFrame := New(9)
	wantKeys := internCheckpoint(perFrame, as)

	batch := New(9)
	refs := as.FrameRefs()
	frames := make([]*mem.Frame, 0, len(refs))
	for _, fr := range refs {
		frames = append(frames, fr.Frame)
	}
	gotKeys := batch.PutFrames(frames, nil)

	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("PutFrames returned %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Errorf("key %d: batch %#x != per-frame %#x", i, gotKeys[i], wantKeys[i])
		}
	}
	if bs, ps := batch.Stats(), perFrame.Stats(); bs != ps {
		t.Errorf("stats diverge: batch %+v, per-frame %+v", bs, ps)
	}
	for _, k := range wantKeys {
		if !bytes.Equal(batch.Get(k), perFrame.Get(k)) {
			t.Errorf("chunk %#x contents diverge between batch and per-frame", k)
		}
		if refCount(batch, k) != refCount(perFrame, k) {
			t.Errorf("chunk %#x refs: batch %d != per-frame %d", k, refCount(batch, k), refCount(perFrame, k))
		}
	}
}
