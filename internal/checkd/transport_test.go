package checkd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
)

// startServer serves on a fresh Unix socket under the test's temp dir and
// tears down gracefully when the test ends.
func startServer(t testing.TB, opts Options) (*Server, string) {
	t.Helper()
	return listenAndServe(t, "unix", filepath.Join(t.TempDir(), "checkd.sock"), opts)
}

// listenAndServe is startServer on any listener address; it returns the
// address the listener bound.
func listenAndServe(t testing.TB, network, addr string, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv := NewServer(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestUnixSocketRoundTrip is the acceptance path: packets exported from an
// in-process run travel over a Unix socket to a daemon-side executor, and
// the verdicts coming back are identical to the in-process transport's.
func TestUnixSocketRoundTrip(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 2 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	local, err := CheckAll(store, pkts, Options{})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}

	_, sock := startServer(t, Options{Workers: 2})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	remote, err := CheckOver(conn, store, pkts)
	if err != nil {
		t.Fatalf("CheckOver: %v", err)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("socket verdicts differ from in-process:\n local %+v\nremote %+v", local, remote)
	}
}

// TestSocketRejectsBadVersion pins the 'E' path: an intake rejection is
// reported to the client as a typed remote error, not a dropped connection.
func TestSocketRejectsBadVersion(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	bad := *pkts[0]
	bad.Version = packet.Version + 1

	_, sock := startServer(t, Options{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_, err = CheckOver(conn, store, []*packet.CheckPacket{&bad})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("CheckOver = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "version") {
		t.Fatalf("remote error %q does not mention the version", remote.Msg)
	}
}

// TestPacketBeforeItsChunkIsAMissingChunkVerdict: a packet's chunks must
// precede it on the stream. A packet written before one of its chunks is
// checked against the chunks already there and answered at once with the
// missing-chunk infrastructure verdict (the wire carries its text); the
// chunk written after it serves the next packet on the same connection,
// which passes.
func TestPacketBeforeItsChunkIsAMissingChunkVerdict(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	_, sock := startServer(t, Options{Workers: 1})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a hang fails the read below
	write := func(typ byte, payload []byte) {
		t.Helper()
		if err := WriteFrame(conn, typ, payload); err != nil {
			t.Fatalf("write %q: %v", typ, err)
		}
	}
	chunk := func(k pagestore.Key) {
		write(FrameChunk, append(binary.LittleEndian.AppendUint64(nil, uint64(k)), store.Get(k)...))
	}
	verdict := func() Verdict {
		t.Helper()
		typ, payload, err := ReadFrame(conn)
		if err != nil || typ != FrameVerdict {
			t.Fatalf("read verdict: frame %q, err %v", typ, err)
		}
		var r Reply
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatalf("verdict frame: %v", err)
		}
		return r.Verdict
	}

	keys := pkts[0].ChunkKeys(nil)
	late := keys[len(keys)-1]
	for _, k := range keys[:len(keys)-1] {
		chunk(k)
	}
	write(FramePacket, packet.Encode(pkts[0]))
	if v := verdict(); v.OK || v.ErrorKind != "" || !strings.Contains(v.Infra, ErrMissingChunk.Error()) {
		t.Fatalf("packet ahead of chunk %#x: verdict %+v, want the missing-chunk infra verdict", uint64(late), v)
	}
	chunk(late)
	write(FramePacket, packet.Encode(pkts[0]))
	if v := verdict(); !v.OK || v.Seq != 1 {
		t.Fatalf("packet after its chunk: verdict %+v, want seq 1 passing", v)
	}
	write(FrameDone, nil)
	if typ, _, err := ReadFrame(conn); err != nil || typ != FrameDone {
		t.Fatalf("end of session: frame %q, err %v", typ, err)
	}
}

// TestReadFrameRejectsDamage is the framing hardening table: truncated
// headers, truncated payloads, and corrupt length prefixes must come back as
// errors — with an oversized length producing the typed ErrFrameTooLarge
// before any allocation happens — never as a giant allocation or a hang.
func TestReadFrameRejectsDamage(t *testing.T) {
	frame := func(typ byte, payloadLen uint32, payload []byte) []byte {
		b := make([]byte, 5+len(payload))
		b[0] = typ
		binary.LittleEndian.PutUint32(b[1:], payloadLen)
		copy(b[5:], payload)
		return b
	}
	cases := []struct {
		name  string
		input []byte
		want  error // nil = any error acceptable; io.ErrUnexpectedEOF etc.
	}{
		{"empty input", nil, io.EOF},
		{"truncated header", []byte{'V', 3, 0}, io.ErrUnexpectedEOF},
		{"truncated payload", frame('V', 10, []byte("abc")), io.ErrUnexpectedEOF},
		{"length over limit", frame('C', MaxFrameLen+1, nil), ErrFrameTooLarge},
		{"length maxed out", frame('P', ^uint32(0), nil), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("ReadFrame accepted damaged input")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame = %v, want %v", err, tc.want)
			}
		})
	}

	// The typed oversize error also still matches the protocol sentinel,
	// so existing errors.Is(err, ErrProtocol) handling keeps working.
	_, _, err := ReadFrame(bytes.NewReader(frame('C', MaxFrameLen+1, nil)))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized-frame error %v does not wrap ErrProtocol", err)
	}
}

// TestReadFrameRoundTrip pins the healthy path, including the boundary
// cases the damage table brackets: empty payloads and payload bytes that
// look like frame headers.
func TestReadFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), []byte("VDCE\x00\xff\x00"), bytes.Repeat([]byte{0xab}, 1<<16)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte('A'+i), p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if typ != byte('A'+i) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d = (%q, %d bytes), want (%q, %d bytes)", i, typ, len(got), 'A'+i, len(p))
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left over", buf.Len())
	}
}

// TestServerEchoesHeartbeat pins the 'H' liveness frame: the server echoes
// the ping payload verbatim without disturbing the session, and a session
// that mixes heartbeats with packets still produces every verdict.
func TestServerEchoesHeartbeat(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	_, sock := startServer(t, Options{Workers: 1})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	if err := WriteFrame(conn, FrameHeartbeat, []byte("ping-7")); err != nil {
		t.Fatalf("write ping: %v", err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read pong: %v", err)
	}
	if typ != FrameHeartbeat || string(payload) != "ping-7" {
		t.Fatalf("pong = (%q, %q), want ('H', \"ping-7\")", typ, payload)
	}

	// The session is undisturbed: a normal check run still works on it.
	verdicts, err := CheckOver(conn, store, pkts)
	if err != nil {
		t.Fatalf("CheckOver after heartbeat: %v", err)
	}
	if len(verdicts) != len(pkts) {
		t.Fatalf("%d verdicts for %d packets", len(verdicts), len(pkts))
	}
}

// failingConn drops the connection after taking a fixed number of bytes,
// standing in for a node dying mid-session: the write that crosses the
// budget takes what fits and fails.
type failingConn struct {
	bytesLeft int
}

func (c *failingConn) Read(p []byte) (int, error) { return 0, io.ErrClosedPipe }
func (c *failingConn) Write(p []byte) (int, error) {
	if len(p) > c.bytesLeft {
		n := c.bytesLeft
		c.bytesLeft = 0
		return n, io.ErrClosedPipe
	}
	c.bytesLeft -= len(p)
	return len(p), nil
}
func (c *failingConn) RemoteAddr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(10, 0, 0, 7), Port: 9141}
}

// TestCheckOverTypedConnError pins the failure taxonomy: transport-level
// failures surface as *ConnError carrying the node address and the packet
// index in flight — a chunk belongs to the packet it is uploaded for —
// distinguishable by type from the *RemoteError verdict rejection (covered by
// TestSocketRejectsBadVersion/Digest).
func TestCheckOverTypedConnError(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) < 2 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	// A packet's frames are its not-yet-sent chunks (a 5-byte header, the
	// 8-byte key, the chunk) followed by the packet (header and encoding).
	// The budget is in bytes, so the conn dies inside the frame that holds
	// byte number budget, however the session batches its writes.
	sent := make(map[pagestore.Key]bool)
	chunkBytes := func(p *packet.CheckPacket) int {
		n := 0
		for _, k := range p.ChunkKeys(nil) {
			if !sent[k] {
				sent[k] = true
				n += 5 + 8 + len(store.Get(k))
			}
		}
		return n
	}
	packetBytes := func(p *packet.CheckPacket) int { return 5 + len(packet.Encode(p)) }
	chunks0 := chunkBytes(pkts[0])
	first := chunks0 + packetBytes(pkts[0])
	second := chunkBytes(pkts[1])
	if second == 0 {
		t.Fatal("packet 1 brings no chunk of its own; the victim should dirty pages every segment")
	}

	cases := []struct {
		name       string
		budget     int
		wantOp     string
		wantPacket int
	}{
		{"dies mid-chunk-upload", chunks0 / 2, "send chunk", 0},
		{"dies uploading a later packet's chunk", first + 1, "send chunk", 1},
		{"dies sending a packet", first + second + 1, "send packet", 1},
		{"dies awaiting verdicts", 1 << 30, "read verdict", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := &failingConn{bytesLeft: tc.budget}
			_, err := CheckOver(conn, store, pkts)
			var ce *ConnError
			if !errors.As(err, &ce) {
				t.Fatalf("CheckOver = %v, want *ConnError", err)
			}
			if ce.Op != tc.wantOp {
				t.Errorf("Op = %q, want %q", ce.Op, tc.wantOp)
			}
			if ce.Packet != tc.wantPacket {
				t.Errorf("Packet = %d, want %d", ce.Packet, tc.wantPacket)
			}
			if !strings.Contains(ce.Addr, "10.0.0.7:9141") {
				t.Errorf("Addr = %q, want the node address in it", ce.Addr)
			}
			if !strings.Contains(ce.Error(), "10.0.0.7:9141") {
				t.Errorf("Error() = %q does not name the node", ce.Error())
			}
			var re *RemoteError
			if errors.As(err, &re) {
				t.Error("connection failure also matched *RemoteError; the classes must be disjoint")
			}
		})
	}
}

// TestSendCountsOnlyWholeChunks pins the byte-offset rule of a failed flush:
// a chunk frame the conn took whole is uploaded, resident and counted, and
// the one holding the first byte it did not take is the failure, whether
// the cut falls on its first byte or inside it. After it nothing is written.
func TestSendCountsOnlyWholeChunks(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	keys := pkts[0].ChunkKeys(nil)
	if len(keys) < 2 {
		t.Fatalf("packet 0 references %d chunks, want 2 or more", len(keys))
	}
	sent := keys[:len(keys)-1] // all but the last chunk go out whole
	whole := 0                 // the stream offset where they end
	var wholeBytes uint64
	for _, k := range sent {
		whole += 5 + 8 + len(store.Get(k))
		wholeBytes += uint64(len(store.Get(k)))
	}
	for _, budget := range []int{whole, whole + 3} {
		s := OpenSession(&failingConn{bytesLeft: budget}, store, func(Reply) {}, 0)
		st, err := s.Send(pkts[0])
		var ce *ConnError
		if !errors.As(err, &ce) || ce.Op != "send chunk" || ce.Packet != 0 {
			t.Fatalf("budget %d: Send = %v, want a ConnError cutting packet 0's last chunk", budget, err)
		}
		if st.Chunks != len(sent) || st.ChunkBytes != wholeBytes || s.Resident() != len(sent) {
			t.Errorf("budget %d: %+v with %d resident, want the %d whole chunks (%d bytes)",
				budget, st, s.Resident(), len(sent), wholeBytes)
		}
		if _, again := s.Send(pkts[1]); again != err {
			t.Errorf("budget %d: a Send after the failure = %v, want the first failure %v", budget, again, err)
		}
	}
}

// TestSocketRejectsBadDigest covers the other typed rejection end to end.
func TestSocketRejectsBadDigest(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	bad := *pkts[0]
	bad.ConfigDigest++

	_, sock := startServer(t, Options{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_, err = CheckOver(conn, store, []*packet.CheckPacket{&bad})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("CheckOver = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "digest") {
		t.Fatalf("remote error %q does not mention the digest", remote.Msg)
	}
}

// TestSocketRejectsUnrunnablePackets: the same rejections end to end — a
// *RemoteError naming the problem, with the daemon still serving afterwards.
// The rejection closes the connection while CheckOver still has its 'D' to
// write; the rejection must win over the broken pipe.
func TestSocketRejectsUnrunnablePackets(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	_, sock := startServer(t, Options{Workers: 1})
	for name, bad := range unrunnablePackets(pkts) {
		bad := bad
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("unix", sock)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			// A regression is a stuck worker and no frame at all.
			conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
			_, err = CheckOver(conn, store, []*packet.CheckPacket{bad})
			var remote *RemoteError
			if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unrunnable packet") {
				t.Fatalf("CheckOver = %v, want a RemoteError naming the unrunnable packet", err)
			}
		})
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial after rejections: %v", err)
	}
	defer conn.Close()
	verdicts, err := CheckOver(conn, store, pkts[:1])
	if err != nil || len(verdicts) != 1 || !verdicts[0].OK {
		t.Fatalf("healthy packet after rejections: verdicts=%v err=%v", verdicts, err)
	}
}

// TestFrameReaderReuseDoesNotAlias: a reader reuses one payload buffer, so
// what a consumer keeps must not point into it. A decoded packet and a
// chunk the store took must be unchanged after later frames overwrite every
// byte they were read from.
func TestFrameReaderReuseDoesNotAlias(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	// The victim makes no syscall that carries memory; give the packet one,
	// so a decoder that kept its input's region bytes has something to lose.
	// The reference is the same encoding decoded from bytes nobody reuses.
	want := *pkts[0]
	want.Events = append(slices.Clone(want.Events), packet.Event{Kind: packet.EvSyscall,
		Syscall: &packet.SyscallEvent{In: []packet.Region{{Addr: 0x1000, Data: []byte("written by the main")}},
			Out: []packet.Region{{Addr: 0x2000, Data: bytes.Repeat([]byte{7}, 300)}}}})
	enc := packet.Encode(&want)
	keys := want.ChunkKeys(nil)
	key := keys[len(keys)-1]
	chunk := binary.LittleEndian.AppendUint64(nil, uint64(key))
	chunk = append(chunk, store.Get(key)...)
	// The first frame sizes the buffer for all of them; the last differs
	// from both the packet and the chunk in every byte.
	size := max(len(enc), len(chunk))
	overwrite := make([]byte, size)
	for i := range overwrite {
		for overwrite[i] == at(enc, i) || overwrite[i] == at(chunk, i) {
			overwrite[i]++
		}
	}
	var stream bytes.Buffer
	for _, fr := range []struct {
		typ     byte
		payload []byte
	}{{FrameHeartbeat, make([]byte, size)}, {FramePacket, enc}, {FrameChunk, chunk}, {FrameHeartbeat, overwrite}} {
		if err := WriteFrame(&stream, fr.typ, fr.payload); err != nil {
			t.Fatal(err)
		}
	}

	r := newFrameReader(&stream)
	read := func(want byte) []byte {
		typ, payload, err := r.next()
		if err != nil || typ != want {
			t.Fatalf("frame = (%q, %v), want %q", typ, err, want)
		}
		return payload
	}
	first := read(FrameHeartbeat)
	got, err := packet.Decode(read(FramePacket))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	dst := pagestore.New(0)
	payload := read(FrameChunk)
	dst.Insert(key, payload[8:])
	if last := read(FrameHeartbeat); &last[0] != &first[0] || &payload[0] != &first[0] {
		t.Fatal("the reader did not reuse its payload buffer; this test shows nothing")
	}
	if ref, err := packet.Decode(enc); err != nil || !reflect.DeepEqual(got, ref) {
		t.Error("a decoded packet changed when its frame's buffer was reused: it aliases the frame")
	}
	if !bytes.Equal(dst.Get(key), store.Get(key)) {
		t.Error("a stored chunk changed when its frame's buffer was reused: it aliases the frame")
	}
}

// at is b[i], or 0 past its end.
func at(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}
