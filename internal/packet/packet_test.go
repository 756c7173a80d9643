package packet

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"parallaft/internal/isa"
	"parallaft/internal/oskernel"
	"parallaft/internal/pagestore"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixturePacket exercises every field and event kind of the format once,
// with fixed values, so the golden encoding pins the whole layout.
func fixturePacket() *CheckPacket {
	p := &CheckPacket{
		Version: Version,
		TraceID: 0x9e3779b97f4a7c15,
		Config: Config{
			PageSize:          16384,
			Quantum:           8192,
			SkidBuffer:        32,
			TimeoutScale:      1.1,
			CompareStates:     true,
			SoftDirtyTracking: false,
			CompareFullMemory: false,
			HashSeed:          0x9a7a11af7,
		},
		Benchmark:  "matmul",
		ProgName:   "matmul-0",
		Segment:    7,
		End:        ExecPoint{Branches: 123456, PC: 789},
		EndIsExit:  false,
		InstrLimit: 2_000_000,
		MainInstrs: 1_800_000,
		CheckerPID: 104,
		PMUSeed:    42_000_126 + 104,
		MaxSkid:    24,
		CodeKey:    pagestore.Key(0x1122334455667788),
		CodeLen:    512,
	}
	p.ConfigDigest = p.Config.Digest()

	p.Start.Regs.X[0] = 0xdead
	p.Start.Regs.X[14] = 0x7ffff000
	p.Start.Regs.F[2] = math.Pi
	p.Start.Regs.V[1] = [isa.VLanes]uint64{1, 2, 3, 4}
	p.Start.PC = 100
	p.Start.BrkBase = 0x200000
	p.Start.Brk = 0x208000
	p.Start.VMAs = []VMA{
		{Base: 0x100000, Length: 0x4000, Prot: 3, Name: "data"},
		{Base: 0x200000, Length: 0x8000, Prot: 3, Name: "heap"},
		{Base: 0x7fff8000, Length: 0x8000, Prot: 3, Name: "stack"},
	}
	p.Start.Pages = []PageRef{
		{VPN: 0x40, Key: pagestore.Key(0xaaaa), Prot: 3},
		{VPN: 0x41, Key: pagestore.Key(0xbbbb), Prot: 1},
	}
	p.Start.Handlers = []Handler{{Sig: 5, PC: 200}}

	p.Events = []Event{
		{Kind: EvSyscall, Syscall: &SyscallEvent{
			Info: oskernel.Info{Nr: 7, Args: oskernel.Args{0x100000, 16, 0, 0, 0}},
			In:   []Region{{Addr: 0x100000, Data: []byte("sixteen bytes!!!")}},
			Ret:  16,
		}},
		{Kind: EvNondet, Nondet: &NondetEvent{PC: 321, Value: 0x5eed}},
		{Kind: EvSignalInternal, Signal: &SignalEvent{Sig: 1, PC: 400, Fatal: false}},
		{Kind: EvSignalExternal, Signal: &SignalEvent{
			Sig: 4, PC: 410, Point: ExecPoint{Branches: 5000, PC: 410}, Fatal: true,
		}},
		{Kind: EvSyscall, Syscall: &SyscallEvent{
			Info:          oskernel.Info{Nr: 11, Args: oskernel.Args{0, 0x8000, 3, 2, 0}},
			Class:         1,
			Ret:           0x300000,
			MmapFixedAddr: 0x300000,
		}},
	}

	p.EndState.Regs.X[0] = 0xbeef
	p.EndState.PC = 789
	p.EndState.Pages = []PageHash{
		{VPN: 0x40, Sum: 0x1111111111111111},
		{VPN: 0x200, Sum: 0x2222222222222222},
	}
	return p
}

// TestChunkKeys pins the routing contract: code key first, page keys in VPN
// order, duplicates collapsed — the exact set a farm node must hold before
// the packet is checkable there.
func TestChunkKeys(t *testing.T) {
	p := fixturePacket()
	got := p.ChunkKeys(nil)
	want := []pagestore.Key{0x1122334455667788, 0xaaaa, 0xbbbb}
	if len(got) != len(want) {
		t.Fatalf("ChunkKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChunkKeys = %v, want %v", got, want)
		}
	}

	// Shared content (two pages with one key, a page sharing the code key)
	// appears once: the upload set is distinct keys, not references.
	p.Start.Pages = append(p.Start.Pages,
		PageRef{VPN: 0x42, Key: 0xaaaa, Prot: 3},
		PageRef{VPN: 0x43, Key: p.CodeKey, Prot: 1})
	got = p.ChunkKeys(got[:0])
	if len(got) != len(want) {
		t.Fatalf("ChunkKeys with shared content = %v, want %v", got, want)
	}
}

// TestGoldenWireFormat pins the encoded bytes of the fixture packet, making
// any format drift an explicit, reviewed change (regenerate with -update and
// bump Version if the layout changed).
func TestGoldenWireFormat(t *testing.T) {
	const golden = "checkpacket_v2.golden"
	got := Encode(fixturePacket())
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: wire format drifted: encoded %d bytes, golden %d bytes; "+
			"if intentional, bump packet.Version and regenerate with -update",
			golden, len(got), len(want))
	}
}

func TestRoundTripPreservesEverything(t *testing.T) {
	p := fixturePacket()
	b := Encode(p)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("decoded packet differs from original:\n got %+v\nwant %+v", got, p)
	}
	if b2 := Encode(got); !bytes.Equal(b2, b) {
		t.Fatal("re-encoding the decoded packet changed the bytes")
	}

	// Float registers travel as bit patterns: a signalling NaN, a quiet NaN
	// with a payload and -0 come back bit for bit (DeepEqual cannot say so:
	// NaN != NaN).
	odd := []float64{
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN, payload
		math.Copysign(0, -1),
	}
	for i, f := range odd {
		p.Start.Regs.F[i] = f
		p.EndState.Regs.F[len(p.EndState.Regs.F)-1-i] = f
	}
	b = Encode(p)
	got, err = Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if b2 := Encode(got); !bytes.Equal(b2, b) {
		t.Fatal("re-encoding a packet with NaN and -0 registers changed the bytes")
	}
	for i := range p.Start.Regs.F {
		if g, w := math.Float64bits(got.Start.Regs.F[i]), math.Float64bits(p.Start.Regs.F[i]); g != w {
			t.Errorf("start F%d = %#x, want %#x", i, g, w)
		}
		if g, w := math.Float64bits(got.EndState.Regs.F[i]), math.Float64bits(p.EndState.Regs.F[i]); g != w {
			t.Errorf("end F%d = %#x, want %#x", i, g, w)
		}
	}
}

// TestEncodeIsReadOnly: encoding only reads its packet, so one packet may be
// encoded by many goroutines at once. Under the race detector this fails for
// a coder that stores anything into the packet, even a field's own value.
func TestEncodeIsReadOnly(t *testing.T) {
	p := fixturePacket()
	want := Encode(p)
	const workers = 8
	outs := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = Encode(p)
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if !bytes.Equal(out, want) {
			t.Errorf("encoder %d: %d bytes differ from the serial encoding's %d", i, len(out), len(want))
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	valid := Encode(fixturePacket())

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	badVersion := append([]byte(nil), valid...)
	badVersion[6] = 99
	old := fixturePacket()
	old.Version = 1
	trailing := append(append([]byte(nil), valid...), 0xff)

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated header", valid[:4], ErrTruncated},
		// A cut inside the fixed-width fields right after the header is a
		// short read; a cut inside a counted array trips the count-vs-input
		// guard first and reports corruption.
		{"truncated body", valid[:12], ErrTruncated},
		{"truncated mid-array", valid[:len(valid)/2], ErrCorrupt},
		{"bad magic", badMagic, ErrMagic},
		{"bad version", badVersion, ErrVersion},
		{"v1 packet", Encode(old), ErrVersion},
		{"trailing bytes", trailing, ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestConfigDigest(t *testing.T) {
	a := fixturePacket().Config
	b := a
	if a.Digest() != b.Digest() {
		t.Fatal("identical configs digest differently")
	}
	b.HashSeed++
	if a.Digest() == b.Digest() {
		t.Fatal("HashSeed change did not move the digest")
	}
	c := a
	c.SkidBuffer = 33
	if a.Digest() == c.Digest() {
		t.Fatal("SkidBuffer change did not move the digest")
	}
}

func TestCodeRoundTrip(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpMovI, Rd: 1, Imm: 42},
		{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: 1},
		{Op: isa.OpBne, Ra: 1, Rb: 2, Imm: 0},
		{Op: isa.OpFMovI, Rd: 3, Imm: 0x3ff0000000000000},
		{Op: isa.OpHalt},
	}
	b := EncodeCode(code)
	got, err := DecodeCode(b, len(code))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, code) {
		t.Fatalf("code round trip changed instructions:\n got %v\nwant %v", got, code)
	}
	if _, err := DecodeCode(b, len(code)+1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong instruction count: err = %v, want ErrCorrupt", err)
	}
	if _, err := DecodeCode(b[:len(b)-1], len(code)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated code: err = %v, want ErrCorrupt", err)
	}
}

func TestDirExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	de, err := NewDirExporter(dir, 0x9a7a11af7)
	if err != nil {
		t.Fatal(err)
	}
	exp := de.Exporter()
	page := make([]byte, 64)
	for i := range page {
		page[i] = byte(i)
	}
	key := exp.Store.Put(page)

	p := fixturePacket()
	p.Start.Pages = []PageRef{{VPN: 0x40, Key: key, Prot: 3}}
	if err := exp.Sink(p); err != nil {
		t.Fatal(err)
	}
	p2 := fixturePacket()
	p2.Segment = 8
	p2.Start.Pages = []PageRef{{VPN: 0x40, Key: key, Prot: 3}}
	if err := exp.Sink(p2); err != nil {
		t.Fatal(err)
	}
	if err := de.Close(); err != nil {
		t.Fatal(err)
	}

	store, pkts, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 {
		t.Fatalf("read %d packets, want 2", len(pkts))
	}
	if pkts[0].Segment != 7 || pkts[1].Segment != 8 {
		t.Fatalf("packet order: segments %d,%d", pkts[0].Segment, pkts[1].Segment)
	}
	if got := store.Get(key); !bytes.Equal(got, page) {
		t.Fatal("page content did not survive the export round trip")
	}
}

// FuzzPacketRoundTrip checks the two format invariants on arbitrary bytes:
// Decode never panics, and the encoding is canonical — any input Decode
// accepts re-encodes to exactly itself (and stays stable thereafter).
func FuzzPacketRoundTrip(f *testing.F) {
	f.Add(Encode(fixturePacket()))
	old := fixturePacket()
	old.Version = 1
	f.Add(Encode(old)) // a version Decode refuses
	small := fixturePacket()
	small.Events = nil
	small.Start.VMAs = nil
	small.Start.Pages = nil
	small.Start.Handlers = nil
	small.EndState.Pages = nil
	f.Add(Encode(small))
	f.Add([]byte{})
	f.Add([]byte("PAFTPK"))
	// One packet per event kind with every typed field at its maximum.
	for _, ev := range []Event{
		{Kind: EvSyscall, Syscall: &SyscallEvent{
			Info:  oskernel.Info{Nr: 0xffff, Args: oskernel.Args{math.MaxUint64, 0, 0, 0, math.MaxUint64}},
			Class: 0xff,
			In:    []Region{{Addr: math.MaxUint64, Data: []byte{0xff}}},
			Ret:   math.MinInt64,
		}},
		{Kind: EvNondet, Nondet: &NondetEvent{PC: math.MaxUint64, Value: math.MaxUint64}},
		{Kind: EvSignalInternal, Signal: &SignalEvent{Sig: 0xff, PC: math.MaxUint64, Fatal: true}},
		{Kind: EvSignalExternal, Signal: &SignalEvent{Sig: 0xff, PC: math.MaxUint64,
			Point: ExecPoint{Branches: math.MaxUint64, PC: math.MaxUint64}, Fatal: true}},
	} {
		one := fixturePacket()
		one.Events = []Event{ev}
		f.Add(Encode(one))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		out := Encode(p)
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted input is not canonical: re-encoded %d bytes differ from input %d bytes", len(out), len(data))
		}
		p2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if out2 := Encode(p2); !bytes.Equal(out2, out) {
			t.Fatal("Encode->Decode->Encode is not byte-identical")
		}
	})
}
