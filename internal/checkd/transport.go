package checkd

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
)

// Wire protocol: a stream of length-prefixed frames, each a type byte
// followed by a little-endian uint32 payload length and the payload.
//
//	client → server:  'C' chunk (key u64 + bytes)   content-addressed page/code data
//	                  'P' packet                     one encoded CheckPacket
//	                  'H' heartbeat ping             liveness probe (opaque payload)
//	                  'D' done                       no more frames; drain and report
//	server → client:  'V' verdict                    JSON-encoded Reply, in submit order
//	                  'H' heartbeat pong             the ping's payload, echoed
//	                  'E' error                      intake rejection or protocol error (fatal)
//	                  'D' done                       all verdicts sent
//
// Chunks for a packet must precede it on the stream (the executor's retry
// loop tolerates slight reordering). Each connection gets its own store and
// executor: connections are independent verdict streams. There is one frame
// per verdict: a Reply is the Verdict's own JSON object plus, for a packet
// that carried a trace ID, the node's remote-verify span as one optional
// member — so a client with no tracer pays for nothing it discards, and for
// an untraced packet the payload is json.Marshal of the Verdict byte for
// byte. There are no side frames: a node's span rides in its verdict's Reply,
// and its metrics are served over HTTP (paftcheckd -metrics-addr). Heartbeats are optional and echoed verbatim, so round-trip
// pairing is the client's concern. The same framing runs unchanged
// over Unix sockets and TCP. Session (session.go) is the client half — every
// 'C', 'P', 'H' and 'D' a client sends is written there — and
// internal/checkfarm drives many sessions at once.
//
// Both ends buffer. A client's Send, Ping and Finish each end in one flush;
// the server flushes a verdict when no other is ready behind it, and every
// other frame at once. A flush that fails is charged by byte offset: the
// ConnError names the frame that held the first byte the conn did not take.
// Each end reads every frame into one reused payload buffer, so a consumer
// copies whatever it keeps.
const (
	FrameChunk     = 'C'
	FramePacket    = 'P'
	FrameVerdict   = 'V'
	FrameError     = 'E'
	FrameDone      = 'D'
	FrameHeartbeat = 'H'
)

// MaxFrameLen bounds a single frame so a corrupt length prefix cannot
// exhaust host memory.
const MaxFrameLen = 64 << 20

// ErrProtocol reports a malformed or out-of-protocol frame.
var ErrProtocol = errors.New("checkd: protocol error")

// ErrFrameTooLarge reports a frame whose length prefix exceeds MaxFrameLen.
// It wraps ErrProtocol, so errors.Is matches either sentinel; the typed
// variant lets transports distinguish a hostile/corrupt length field from
// other framing damage without string matching.
var ErrFrameTooLarge = fmt.Errorf("%w: frame exceeds size limit", ErrProtocol)

// WriteFrame writes one protocol frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// The header is the whole frame, and the peer may already have acted
		// on it: after a client's 'D' the server answers and hangs up, and a
		// zero-byte write to the closed socket would fail with EPIPE.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one protocol frame, rejecting oversized length prefixes
// with ErrFrameTooLarge before allocating anything.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	f := frameReader{r: r}
	return f.next()
}

// wireBuffer is the size of the buffer at each end of a connection, both
// ways: one flush carries a Send's chunks and packet, one read many frames.
const wireBuffer = 64 << 10

// frameReader reads frames through a buffer into one reused payload, valid
// until the next read: the store interns a copy of a chunk, packet.Decode
// copies every region, and json.Unmarshal shares nothing with its input.
type frameReader struct {
	r       io.Reader
	hdr     [5]byte
	payload []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, wireBuffer)}
}

func (f *frameReader) next() (byte, []byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(f.hdr[1:])
	if n > MaxFrameLen {
		return 0, nil, fmt.Errorf("%w: frame %q length %d exceeds %d-byte limit",
			ErrFrameTooLarge, f.hdr[0], n, MaxFrameLen)
	}
	if uint32(cap(f.payload)) < n {
		f.payload = make([]byte, n)
	}
	payload := f.payload[:n]
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return 0, nil, err
	}
	return f.hdr[0], payload, nil
}

// Server serves the checking service over a listener (normally a Unix
// socket). Each connection is an independent session: its own pagestore,
// its own executor, its own verdict ordering.
type Server struct {
	opts Options
	tm   checkdMetrics

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewServer creates a server; opts configures the per-connection executors.
// With opts.Metrics set, every connection's executor and pagestore report
// into the shared registry, so the HTTP endpoint it feeds exposes daemon-wide
// totals.
func NewServer(opts Options) *Server {
	return &Server{opts: opts, tm: newCheckdMetrics(opts.Metrics), conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener closes (see Shutdown). It
// returns nil on graceful shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// Shutdown ran before Serve stored the listener; it could not
		// close it, so close it here instead of accepting forever.
		ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains gracefully: stop accepting, let in-flight connections
// finish their verdict streams, then return.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// serveConn runs one session: intake frames drive a fresh executor, a
// writer goroutine streams its verdicts back.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	store := pagestore.New(0)
	store.SetMetrics(s.opts.Metrics)
	xopts := s.opts
	xopts.observe = true // each traced Reply carries its span back
	x := NewExecutor(store, xopts)

	var wmu sync.Mutex // 'V'/'E'/'H'/'D' frames interleave from two goroutines
	w := bufio.NewWriterSize(conn, wireBuffer)
	// send buffers one frame and, unless another is ready to follow it, flushes.
	send := func(typ byte, payload []byte, more bool) error {
		wmu.Lock()
		defer wmu.Unlock()
		s.tm.framesWritten.Inc()
		s.tm.bytesWritten.Add(uint64(5 + len(payload)))
		s.opts.Trace.Frame("send", typ, len(payload))
		if err := WriteFrame(w, typ, payload); err != nil || more {
			return err
		}
		return w.Flush()
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		verdicts := x.Verdicts()
		for v := range verdicts {
			b, err := json.Marshal(Reply{Verdict: v, Span: v.span})
			if err != nil {
				return
			}
			if send(FrameVerdict, b, len(verdicts) > 0) != nil {
				return
			}
		}
	}()
	// Every way out stops intake and lets the writer finish what was accepted.
	defer func() {
		x.Close()
		<-writerDone
	}()
	fail := func(msg string) { send(FrameError, []byte(msg), false) } //nolint:errcheck // the session ends either way

	r := newFrameReader(conn)
	for {
		typ, payload, err := r.next()
		if err != nil {
			return // a vanished client: drop the session, nothing to report to
		}
		s.tm.framesRead.Inc()
		s.tm.bytesRead.Add(uint64(5 + len(payload)))
		s.opts.Trace.Frame("recv", typ, len(payload))
		switch typ {
		case FrameChunk:
			if len(payload) < 8 {
				fail("chunk frame shorter than its key")
				return
			}
			key := pagestore.Key(binary.LittleEndian.Uint64(payload))
			store.Insert(key, payload[8:])
		case FramePacket:
			pkt, err := packet.Decode(payload)
			if err != nil {
				fail(fmt.Sprintf("bad packet: %v", err))
				return
			}
			if err := x.Submit(pkt); err != nil {
				fail(err.Error())
				return
			}
		case FrameHeartbeat:
			// Echo the ping verbatim: liveness is proven by any reply, and
			// an opaque payload lets the client correlate pings however it
			// likes (checkfarm sends a monotone sequence number).
			if send(FrameHeartbeat, payload, false) != nil {
				return
			}
		case FrameDone:
			x.Close()
			<-writerDone
			send(FrameDone, nil, false) //nolint:errcheck // the session is over
			return
		default:
			fail(fmt.Sprintf("unexpected frame type %q", typ))
			return
		}
	}
}

// RemoteError is an 'E' frame from the server: the session was rejected.
// It is a verdict-level failure — the node is alive and answered, the
// session's content was refused — as opposed to ConnError, which reports the
// transport itself failing.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "checkd: remote: " + e.Msg }

// ConnError is a connection-level transport failure against one node: a
// write that never arrived or a verdict stream that broke mid-session. It is
// the retryable class — the packets in flight were (as far as the client
// knows) never judged, so a dispatcher may safely re-send them elsewhere.
// Addr names the node ("" when the conn carries no address) and Packet is
// the index of the packet being sent (a chunk belongs to the packet it was
// uploaded for) or awaited when the failure hit, -1 for a frame that belongs
// to no packet (a heartbeat, the closing 'D').
type ConnError struct {
	Addr   string
	Op     string // "send chunk", "send packet", "read verdict", ...
	Packet int
	Err    error
}

func (e *ConnError) Error() string {
	where := e.Addr
	if where == "" {
		where = "conn"
	}
	if e.Packet >= 0 {
		return fmt.Sprintf("checkd: %s: %s (packet %d): %v", where, e.Op, e.Packet, e.Err)
	}
	return fmt.Sprintf("checkd: %s: %s: %v", where, e.Op, e.Err)
}

func (e *ConnError) Unwrap() error { return e.Err }

// connAddr extracts a printable remote address when the transport has one.
func connAddr(conn io.ReadWriter) string {
	if c, ok := conn.(interface{ RemoteAddr() net.Addr }); ok {
		if a := c.RemoteAddr(); a != nil {
			return a.String()
		}
	}
	return ""
}

// CheckOver runs a full client session on conn: every packet through one
// Session (each chunk just ahead of the first packet that needs it), then the
// ordered verdicts. It is the socket analogue of CheckAll (Unix or TCP — the
// framing is identical).
//
// Failures come back in two distinguishable classes: a *ConnError wraps any
// transport-level failure with the node's address and the packet index in
// flight (the dispatcher's cue to evict the node and re-send elsewhere),
// while a *RemoteError carries the server's own rejection of the session
// content (re-sending the same packets elsewhere would be rejected again).
// A server that rejects a session closes it, so the client's next write may
// fail before it has read the rejection: a failed write is classified only
// after what the server already sent has been read, and an 'E' frame among
// it wins.
func CheckOver(conn io.ReadWriter, store *pagestore.Store, pkts []*packet.CheckPacket) ([]Verdict, error) {
	var verdicts []Verdict
	s := OpenSession(conn, store, func(r Reply) { verdicts = append(verdicts, r.Verdict) }, 0)
	var sendErr error
	for _, p := range pkts {
		if _, sendErr = s.Send(p); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		sendErr = s.Finish()
	}
	if sendErr != nil {
		// The drain must end even if the peer is alive and silent (a write
		// deadline expired against a wedged node): no read bound, no drain.
		d, ok := conn.(interface{ SetReadDeadline(time.Time) error })
		if !ok || d.SetReadDeadline(time.Now().Add(drainTimeout)) != nil {
			return nil, sendErr
		}
		defer d.SetReadDeadline(time.Time{}) //nolint:errcheck
	}
	err := s.Wait()
	var rejected *RemoteError
	if sendErr != nil && !errors.As(err, &rejected) {
		err = sendErr
	}
	return verdicts, err
}

// drainTimeout bounds CheckOver's read of a session whose sending failed.
const drainTimeout = 2 * time.Second
