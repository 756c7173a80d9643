package checkd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
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

// failingConn drops the connection after allowing a fixed number of writes,
// standing in for a node dying mid-session.
type failingConn struct {
	writesLeft int
}

func (c *failingConn) Read(p []byte) (int, error) { return 0, io.ErrClosedPipe }
func (c *failingConn) Write(p []byte) (int, error) {
	if c.writesLeft <= 0 {
		return 0, io.ErrClosedPipe
	}
	c.writesLeft--
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
	// WriteFrame issues two Write calls per frame (header, payload), and a
	// packet's frames are its not-yet-sent chunks followed by the packet.
	sent := make(map[pagestore.Key]bool)
	chunkWrites := func(p *packet.CheckPacket) int {
		n := 0
		for _, k := range p.ChunkKeys(nil) {
			if !sent[k] {
				sent[k] = true
				n += 2
			}
		}
		return n
	}
	first := chunkWrites(pkts[0]) + 2
	second := chunkWrites(pkts[1])
	if second == 0 {
		t.Fatal("packet 1 brings no chunk of its own; the victim should dirty pages every segment")
	}

	cases := []struct {
		name       string
		writes     int
		wantOp     string
		wantPacket int
	}{
		{"dies mid-chunk-upload", first / 2, "send chunk", 0},
		{"dies uploading a later packet's chunk", first + 1, "send chunk", 1},
		{"dies sending a packet", first + second + 1, "send packet", 1},
		{"dies awaiting verdicts", 1 << 30, "read verdict", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := &failingConn{writesLeft: tc.writes}
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
