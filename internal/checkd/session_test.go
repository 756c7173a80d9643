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
	"sync/atomic"
	"testing"
	"time"

	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/telemetry"
)

// TestCheckOverLongSession is the regression test for the hang: a client that
// writes its whole session before reading one verdict fills the socket both
// ways from about 256 packets on. One session of over a thousand packets must
// finish, on both transports, with the in-process verdicts.
func TestCheckOverLongSession(t *testing.T) {
	_, store, export := runExported(t, smallSliceConfig(), victimProgram(240_000))
	once, err := CheckAll(store, export, Options{Workers: 1})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	// The session is the export over and over; a verdict is a function of its
	// packet, so the in-process reference repeats too, renumbered.
	var pkts []*packet.CheckPacket
	var want []Verdict
	for len(pkts) < 1024 {
		pkts = append(pkts, export...)
		want = append(want, once...)
	}
	for i := range want {
		want[i].Seq = i
	}

	_, sock := startServer(t, Options{Workers: 1})
	_, loopback := listenAndServe(t, "tcp", "127.0.0.1:0", Options{Workers: 1})
	for _, tr := range []struct{ network, addr string }{{"unix", sock}, {"tcp", loopback}} {
		t.Run(tr.network, func(t *testing.T) {
			conn, err := net.Dial(tr.network, tr.addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			// A regression is a deadlock; the deadline turns it into an error.
			conn.SetDeadline(time.Now().Add(3 * time.Minute)) //nolint:errcheck
			got, err := CheckOver(conn, store, pkts)
			if err != nil {
				t.Fatalf("CheckOver of %d packets: %v (%d verdicts arrived)", len(pkts), err, len(got))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-packet session's verdicts differ from in-process", len(pkts))
			}
		})
	}
}

// tapConn records both directions of a session, for tests that assert on the
// frames themselves.
type tapConn struct {
	net.Conn
	in, out bytes.Buffer // read by the session's reader, written by its caller
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

type tappedFrame struct {
	typ     byte
	payload []byte
}

func parseFrames(t testing.TB, stream []byte) []tappedFrame {
	t.Helper()
	var frames []tappedFrame
	for r := bytes.NewReader(stream); r.Len() > 0; {
		typ, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("recorded stream does not parse: %v", err)
		}
		frames = append(frames, tappedFrame{typ, payload})
	}
	return frames
}

// tappedCheckOver runs one CheckOver session against a fresh server and
// returns its verdicts with the recorded conn.
func tappedCheckOver(t testing.TB, store *pagestore.Store, pkts []*packet.CheckPacket) ([]Verdict, *tapConn) {
	t.Helper()
	_, sock := startServer(t, Options{Workers: 1})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	tap := &tapConn{Conn: conn}
	vs, err := CheckOver(tap, store, pkts)
	if err != nil {
		t.Fatalf("CheckOver: %v", err)
	}
	return vs, tap
}

// TestSessionUploadsEachChunkOnce: across a multi-packet session every
// distinct referenced key crosses the wire in exactly one 'C' frame, ahead of
// the first packet that names it, and a chunk of the store no packet
// references is never sent.
func TestSessionUploadsEachChunkOnce(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 4 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	orphan := store.Put(bytes.Repeat([]byte{0x5a}, 1<<14))
	_, tap := tappedCheckOver(t, store, pkts)

	sent := make(map[pagestore.Key]int)
	next := 0 // index of the next packet frame
	for _, fr := range parseFrames(t, tap.out.Bytes()) {
		switch fr.typ {
		case FrameChunk:
			sent[pagestore.Key(binary.LittleEndian.Uint64(fr.payload))]++
		case FramePacket:
			for _, k := range pkts[next].ChunkKeys(nil) {
				if sent[k] == 0 {
					t.Fatalf("packet %d went out before its chunk %#x", next, uint64(k))
				}
			}
			next++
		}
	}
	if next != len(pkts) {
		t.Fatalf("%d packet frames for %d packets", next, len(pkts))
	}
	referenced := 0
	for _, p := range pkts {
		for _, k := range p.ChunkKeys(nil) {
			if sent[k] != 1 {
				t.Fatalf("chunk %#x crossed the wire %d times", uint64(k), sent[k])
			}
		}
		referenced += len(p.ChunkKeys(nil))
	}
	if len(sent) >= referenced {
		t.Fatalf("%d chunk frames for %d references: consecutive segments share no page?", len(sent), referenced)
	}
	if sent[orphan] != 0 {
		t.Fatal("a chunk no packet references was uploaded")
	}
}

// TestVerdictFrameWire pins the one frame per verdict: for a packet without a
// trace ID the 'V' payload is the Verdict's JSON byte for byte, and for a
// traced one it is that JSON plus the node's span and nothing else.
func TestVerdictFrameWire(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	untraced := *pkts[0]
	untraced.TraceID = 0
	session := []*packet.CheckPacket{&untraced, pkts[1]}
	want, err := CheckAll(store, session, Options{Workers: 1})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	_, tap := tappedCheckOver(t, store, session)

	var payloads [][]byte
	for _, fr := range parseFrames(t, tap.in.Bytes()) {
		switch fr.typ {
		case FrameVerdict:
			payloads = append(payloads, fr.payload)
		case FrameDone:
		default:
			t.Fatalf("server sent a %q frame; 'V' and 'D' are the whole reply stream", fr.typ)
		}
	}
	if len(payloads) != len(session) {
		t.Fatalf("%d verdict frames for %d packets", len(payloads), len(session))
	}
	plain, err := json.Marshal(want[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payloads[0], plain) {
		t.Fatalf("untraced verdict frame is not the Verdict's JSON:\n got %s\nwant %s", payloads[0], plain)
	}

	var r Reply
	if err := json.Unmarshal(payloads[1], &r); err != nil {
		t.Fatalf("traced verdict frame: %v", err)
	}
	if !reflect.DeepEqual(r.Verdict, want[1]) {
		t.Fatalf("traced reply's verdict = %+v, want %+v", r.Verdict, want[1])
	}
	if r.Span == nil || r.Span.TraceID != pkts[1].TraceID || r.Span.Stage != telemetry.StageRemoteVerify ||
		r.Span.Actor != "checkd" || r.Span.Seq != 1 || r.Span.Detail != "ok" {
		t.Fatalf("traced reply's span = %+v", r.Span)
	}
	// The traced payload is the Verdict's JSON with one member more: the span.
	verdict, err := json.Marshal(want[1])
	if err != nil {
		t.Fatal(err)
	}
	span, err := json.Marshal(r.Span)
	if err != nil {
		t.Fatal(err)
	}
	traced := append(append(append(verdict[:len(verdict)-1:len(verdict)-1], `,"span":`...), span...), '}')
	if !bytes.Equal(payloads[1], traced) {
		t.Errorf("traced verdict frame is not the Verdict's JSON plus its span:\n got %s\nwant %s", payloads[1], traced)
	}
	// Marshal is the server's side of the same pin.
	if again, err := json.Marshal(r); err != nil || !bytes.Equal(again, payloads[1]) {
		t.Errorf("Reply does not round-trip:\n got %s (err %v)\nwant %s", again, err, payloads[1])
	}

	// Nodes of the earlier wire format also sent a "ledger" member; their
	// replies still decode, to the same verdict and span, in a mixed fleet.
	older := append(append([]byte(nil), payloads[1][:len(payloads[1])-1]...),
		`,"ledger":{"trace":7,"host_ns":1200,"sim_ns":3.5,"sim_j":1e-9}}`...)
	var old Reply
	if err := json.Unmarshal(older, &old); err != nil {
		t.Fatalf("reply with a ledger member: %v", err)
	}
	if !reflect.DeepEqual(old, r) {
		t.Errorf("reply with a ledger member decodes to %+v, want %+v", old, r)
	}
}

// replayConn is a server that says exactly the recorded bytes and then hangs
// up, and takes whatever the client writes.
type replayConn struct{ io.Reader }

func (replayConn) Write(p []byte) (int, error) { return len(p), nil }

// FuzzSessionRead: whatever a server sends, a session ends — by the server's
// 'D', or with one of the three classified errors — without panicking,
// hanging, or (ReadFrame's bound) allocating past MaxFrameLen.
func FuzzSessionRead(f *testing.F) {
	// A recorded healthy reply stream, and the damage a fuzzer should start from.
	_, store, pkts := runExported(f, smallSliceConfig(), victimProgram(120_000))
	_, tap := tappedCheckOver(f, store, pkts[:2])
	healthy := tap.in.Bytes()
	f.Add(healthy)
	f.Add(healthy[:len(healthy)/2])
	f.Add(append([]byte{FrameHeartbeat, 1, 0, 0, 0, 'x'}, healthy...))
	f.Add([]byte{FrameError, 3, 0, 0, 0, 'b', 'a', 'd'})
	f.Add([]byte{FrameVerdict, 2, 0, 0, 0, '{', '{'})
	f.Add([]byte{FrameVerdict, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{'?', 0, 0, 0, 0})
	// The reader's reused buffer: a verdict shorter than the one before it
	// (the same JSON, less trailing space), then a frame header that is the
	// last five bytes of one buffered read.
	var verdict []byte
	for _, fr := range parseFrames(f, healthy) {
		if fr.typ == FrameVerdict {
			verdict = fr.payload
			break
		}
	}
	encodeFrames := func(frames ...tappedFrame) []byte {
		var b bytes.Buffer
		for _, fr := range frames {
			WriteFrame(&b, fr.typ, fr.payload) //nolint:errcheck // a Buffer takes everything
		}
		return b.Bytes()
	}
	padded := append(slices.Clone(verdict), bytes.Repeat([]byte(" "), 64)...)
	f.Add(encodeFrames(tappedFrame{FrameVerdict, padded}, tappedFrame{FrameVerdict, verdict}, tappedFrame{FrameDone, nil}))
	f.Add(append(encodeFrames(tappedFrame{FrameHeartbeat, make([]byte, wireBuffer-10)}), healthy...))

	f.Fuzz(func(t *testing.T, stream []byte) {
		replies := 0
		s := OpenSession(replayConn{bytes.NewReader(stream)}, store, func(Reply) { replies++ }, 0)
		select {
		case <-s.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("session still reading a finite stream")
		}
		err := s.Wait()
		var ce *ConnError
		var re *RemoteError
		switch {
		case err == nil, errors.As(err, &re), errors.Is(err, ErrProtocol):
		case errors.As(err, &ce):
			if ce.Op != "read verdict" || ce.Packet != replies {
				t.Fatalf("ConnError %+v after %d replies", ce, replies)
			}
		default:
			t.Fatalf("unclassified session error %T: %v", err, err)
		}
	})
}

// countConn counts the Write calls that reach the socket.
type countConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countListener hands out the server's side of each conn counted.
type countListener struct {
	net.Listener
	accepted chan *countConn
}

func (l countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countConn{Conn: conn}
	l.accepted <- c
	return c, nil
}

// TestSendWritesOnce pins the buffered wire: a Send whose frames fit the
// buffer reaches the socket in one write, chunks and packet together, and
// so do a Ping, a Finish and a verdict the server sends on its own.
func TestSendWritesOnce(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "checkd.sock"))
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *countConn, 1)
	srv := NewServer(Options{Workers: 1})
	go srv.Serve(countListener{ln, accepted}) //nolint:errcheck // nil on Shutdown
	defer srv.Shutdown()
	conn, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute)) //nolint:errcheck // a regression is a hang
	client := &countConn{Conn: conn}
	replies := make(chan Reply, len(pkts))
	s := OpenSession(client, store, func(r Reply) { replies <- r }, 0)
	server := <-accepted

	sent := make(map[pagestore.Key]bool)
	fitting := 0
	for i, p := range pkts {
		size := 5 + len(packet.Encode(p))
		for _, k := range p.ChunkKeys(nil) {
			if !sent[k] {
				sent[k] = true
				size += 5 + 8 + len(store.Get(k))
			}
		}
		client.writes.Store(0)
		server.writes.Store(0)
		if _, err := s.Send(p); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		<-replies
		if n := client.writes.Load(); size <= wireBuffer && n != 1 {
			t.Errorf("Send %d of %d bytes took %d writes, want 1", i, size, n)
		}
		if size <= wireBuffer {
			fitting++
		}
		if n := server.writes.Load(); n != 1 {
			t.Errorf("verdict %d took %d server writes, want 1", i, n)
		}
	}
	if fitting == 0 {
		t.Fatalf("no Send fits the %d-byte buffer", wireBuffer)
	}
	t.Logf("%d of %d Sends fit the buffer", fitting, len(pkts))
	for _, op := range []struct {
		name string
		do   func() error
	}{{"Ping", func() error { return s.Ping([]byte("ping")) }}, {"Finish", s.Finish}} {
		client.writes.Store(0)
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if n := client.writes.Load(); n != 1 {
			t.Errorf("%s took %d writes, want 1", op.name, n)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}
