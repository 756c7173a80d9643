package checkd

import (
	"bytes"
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
//	                  'M' metrics request            ask for a telemetry snapshot
//	                  'H' heartbeat ping             liveness probe (opaque payload)
//	                  'D' done                       no more frames; drain and report
//	server → client:  'V' verdict                    JSON-encoded Verdict, in submit order
//	                  'T' trace span                 JSON StageSpan for the preceding verdict
//	                  'L' ledger slice               JSON profile.Slice for the preceding verdict
//	                  'M' metrics reply              Prometheus text exposition
//	                  'H' heartbeat pong             the ping's payload, echoed
//	                  'E' error                      intake rejection or protocol error (fatal)
//	                  'D' done                       all verdicts sent
//
// Chunks for a packet must precede it on the stream (the executor's retry
// loop tolerates slight reordering). Each connection gets its own store and
// executor: connections are independent verdict streams. A metrics request
// is answered immediately with the daemon-wide registry (empty payload when
// the server runs without one). Heartbeats are optional — a client that
// never pings sees exactly the pre-heartbeat protocol — and are echoed
// verbatim, so round-trip pairing is the client's concern. A trace frame
// follows a verdict only when that verdict's packet carried a trace ID, so
// pre-tracing clients and servers interoperate unchanged; clients that
// don't care may discard 'T' frames. A ledger frame works the same way: it
// rides directly behind its verdict (after the trace frame, when both are
// present) and carries the remote replay's simulated time, modeled energy
// and host wall time, so the submitting runtime's overhead ledger can merge
// the remote cost back by trace ID; clients that keep no ledger discard 'L'
// frames. The same framing runs unchanged over Unix sockets and TCP;
// internal/checkfarm drives many TCP sessions at once.
const (
	FrameChunk     = 'C'
	FramePacket    = 'P'
	FrameVerdict   = 'V'
	FrameError     = 'E'
	FrameDone      = 'D'
	FrameMetrics   = 'M'
	FrameHeartbeat = 'H'
	FrameTrace     = 'T'
	FrameLedger    = 'L'
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
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one protocol frame, rejecting oversized length prefixes
// with ErrFrameTooLarge before allocating anything.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrameLen {
		return 0, nil, fmt.Errorf("%w: frame %q length %d exceeds %d-byte limit",
			ErrFrameTooLarge, hdr[0], n, MaxFrameLen)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
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
// into the shared registry, and 'M' frames (or the HTTP endpoint fed by the
// same registry) expose daemon-wide totals.
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
	xopts.RetainSpans = true  // ship remote-verify spans back over 'T' frames
	xopts.RetainLedger = true // ship replay cost slices back over 'L' frames
	x := NewExecutor(store, xopts)

	var wmu sync.Mutex // 'V'/'T'/'E'/'M'/'D' frames interleave from two goroutines
	send := func(typ byte, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		s.tm.framesWritten.Inc()
		s.tm.bytesWritten.Add(uint64(5 + len(payload)))
		s.opts.Flight.RecordFrame("send", typ, len(payload))
		return WriteFrame(conn, typ, payload)
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for v := range x.Verdicts() {
			b, err := json.Marshal(v)
			if err != nil {
				return
			}
			if send(FrameVerdict, b) != nil {
				return
			}
			// The trace frame rides directly behind its verdict, under the
			// same writer, so a client never sees a span for a verdict it
			// does not yet have.
			if span, ok := x.TakeSpan(v.Seq); ok {
				sb, err := json.Marshal(span)
				if err != nil {
					return
				}
				if send(FrameTrace, sb) != nil {
					return
				}
			}
			// The ledger slice rides behind the same verdict, after the span.
			if sl, ok := x.TakeLedgerSlice(v.Seq); ok {
				lb, err := json.Marshal(sl)
				if err != nil {
					return
				}
				if send(FrameLedger, lb) != nil {
					return
				}
			}
		}
	}()

	fail := func(msg string) {
		send(FrameError, []byte(msg))
		x.Close()
		<-writerDone
	}

	for {
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			// A vanished client: drop the session, nothing to report to.
			x.Close()
			<-writerDone
			return
		}
		s.tm.framesRead.Inc()
		s.tm.bytesRead.Add(uint64(5 + len(payload)))
		s.opts.Flight.RecordFrame("recv", typ, len(payload))
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
		case FrameMetrics:
			var buf bytes.Buffer
			if s.opts.Metrics != nil {
				if err := s.opts.Metrics.WritePrometheus(&buf); err != nil {
					fail(fmt.Sprintf("metrics snapshot: %v", err))
					return
				}
			}
			if send(FrameMetrics, buf.Bytes()) != nil {
				x.Close()
				<-writerDone
				return
			}
		case FrameHeartbeat:
			// Echo the ping verbatim: liveness is proven by any reply, and
			// an opaque payload lets the client correlate pings however it
			// likes (checkfarm sends a monotone sequence number).
			if send(FrameHeartbeat, payload) != nil {
				x.Close()
				<-writerDone
				return
			}
		case FrameDone:
			x.Close()
			<-writerDone
			send(FrameDone, nil)
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
// the index of the packet being sent or awaited when the failure hit (-1
// when the failure predates packet traffic).
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

// FetchMetrics asks the server for a telemetry snapshot over a dedicated
// connection and returns the Prometheus text exposition. Use a fresh
// connection: on a session with packets in flight, verdict frames may
// arrive ahead of the metrics reply.
func FetchMetrics(conn io.ReadWriter) ([]byte, error) {
	if err := WriteFrame(conn, FrameMetrics, nil); err != nil {
		return nil, err
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	switch typ {
	case FrameMetrics:
		return payload, nil
	case FrameError:
		return nil, &RemoteError{Msg: string(payload)}
	default:
		return nil, fmt.Errorf("%w: unexpected frame type %q in metrics reply", ErrProtocol, typ)
	}
}

// CheckOver runs a full client session on conn: stream every chunk of the
// store, then every packet, then collect the ordered verdicts. It is the
// socket analogue of CheckAll (Unix or TCP — the framing is identical).
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
	addr := connAddr(conn)
	sendErr := sendSession(conn, addr, store, pkts)
	if sendErr != nil {
		// The drain must end even if the peer is alive and silent (a write
		// deadline expired against a wedged node): no read bound, no drain.
		d, ok := conn.(interface{ SetReadDeadline(time.Time) error })
		if !ok || d.SetReadDeadline(time.Now().Add(drainTimeout)) != nil {
			return nil, sendErr
		}
		defer d.SetReadDeadline(time.Time{})
	}
	verdicts, err := readSession(conn, addr)
	var rejected *RemoteError
	if sendErr != nil && !errors.As(err, &rejected) {
		err = sendErr
	}
	return verdicts, err
}

// drainTimeout bounds CheckOver's read of a session whose sending failed.
const drainTimeout = 2 * time.Second

// sendSession writes CheckOver's half of a session; a failure is a
// *ConnError naming the write that failed.
func sendSession(conn io.Writer, addr string, store *pagestore.Store, pkts []*packet.CheckPacket) error {
	var sendErr error
	store.Each(func(k pagestore.Key, data []byte) {
		if sendErr != nil {
			return
		}
		payload := make([]byte, 8+len(data))
		binary.LittleEndian.PutUint64(payload, uint64(k))
		copy(payload[8:], data)
		if err := WriteFrame(conn, FrameChunk, payload); err != nil {
			sendErr = &ConnError{Addr: addr, Op: "send chunk", Packet: -1, Err: err}
		}
	})
	if sendErr != nil {
		return sendErr
	}
	for i, p := range pkts {
		if err := WriteFrame(conn, FramePacket, packet.Encode(p)); err != nil {
			return &ConnError{Addr: addr, Op: "send packet", Packet: i, Err: err}
		}
	}
	if err := WriteFrame(conn, FrameDone, nil); err != nil {
		return &ConnError{Addr: addr, Op: "send done", Packet: -1, Err: err}
	}
	return nil
}

// readSession collects verdicts until the server's 'D' (nil error), its 'E'
// (*RemoteError) or a broken stream (*ConnError), returning what arrived.
func readSession(conn io.Reader, addr string) ([]Verdict, error) {
	var verdicts []Verdict
	for {
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			// The verdict being awaited is the first one not yet received.
			return verdicts, &ConnError{Addr: addr, Op: "read verdict", Packet: len(verdicts), Err: err}
		}
		switch typ {
		case FrameVerdict:
			var v Verdict
			if err := json.Unmarshal(payload, &v); err != nil {
				return verdicts, fmt.Errorf("%w: bad verdict frame: %v", ErrProtocol, err)
			}
			verdicts = append(verdicts, v)
		case FrameHeartbeat:
			// A pong from an earlier ping on a shared conn; not ours to pair.
		case FrameTrace:
			// Remote-verify span for the previous verdict; this plain client
			// has no tracer to merge it into.
		case FrameLedger:
			// Replay cost slice for the previous verdict; this plain client
			// keeps no overhead ledger to merge it into.
		case FrameError:
			return verdicts, &RemoteError{Msg: string(payload)}
		case FrameDone:
			return verdicts, nil
		default:
			return verdicts, fmt.Errorf("%w: unexpected frame type %q", ErrProtocol, typ)
		}
	}
}
