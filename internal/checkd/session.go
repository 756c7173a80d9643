package checkd

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/telemetry"
)

// Reply is the payload of a 'V' frame: the verdict and, for a packet that
// carried a trace ID, the node's remote-verify span (on the node's clock,
// numbered with the session-local seq). A reply without a span marshals to
// exactly its Verdict's JSON.
type Reply struct {
	Verdict
	Span *telemetry.StageSpan `json:"span,omitempty"`
}

// Session is the client half of the frame protocol on one connection, and the
// only one: CheckOver and checkfarm's nodes are both thin users of it.
//
// The contract, in three rules. It reads from the moment it is opened: the
// server streams verdicts while it is still taking packets, and a client that
// does not read them fills the socket, which stops the server's writer, its
// executor, its intake, and finally the client's own writes — the server's
// bounded queue is all the flow control the protocol needs, provided the
// client never writes without reading. It uploads a chunk immediately before
// the first packet that references it, at most once per connection, and never
// a chunk no packet has named. And it classifies only what it can know: a
// failed write or a broken stream is a *ConnError (retryable elsewhere), an
// 'E' frame is a *RemoteError (not), damage to the stream wraps ErrProtocol;
// a chunk its own store lacks is none of these — the packet goes anyway and
// the server answers with its bounded-retry ErrMissingChunk verdict, exactly
// as the in-process executor would.
//
// Send, Ping and Finish may be called from different goroutines; they are
// serialised. The reply callback runs on the session's reader goroutine, in
// verdict order; while it runs nothing is read, so it must not wait on the
// session's own writes.
type Session struct {
	conn  io.ReadWriter
	addr  string
	store *pagestore.Store
	reply func(Reply)

	// deadline is the conn's SetWriteDeadline when writes are to be bounded
	// and the conn can bound them, nil otherwise.
	deadline     func(time.Time) error
	writeTimeout time.Duration

	wmu    sync.Mutex // held across one whole Send, Ping or Finish (lock/unlock)
	werr   error      // first write failure; the stream is cut mid-frame after it
	sent   int        // packets written, for ConnError.Packet
	keybuf []pagestore.Key

	mu        sync.Mutex                 // never held across I/O, so Idle and Resident never wait on a peer
	resident  map[pagestore.Key]struct{} // written under wmu and mu both, so Send reads it under wmu alone
	lastFrame time.Time

	verdicts int // verdict frames read; the reader goroutine's own
	done     chan struct{}
	err      error // the session's end state; written before done closes
}

// SendStats is what one Send put on the wire: chunks written (and their
// payload bytes) and referenced chunks skipped because the connection already
// holds them. It is returned with a failing Send too, so a caller's upload
// accounting stays true for a node that died mid-upload.
type SendStats struct {
	Chunks     int
	ChunkBytes uint64
	Resident   int
}

// OpenSession starts a client session on conn and its reader goroutine.
// Chunks are resolved in store; reply receives every verdict frame. A
// positive writeTimeout bounds each Send, Ping and Finish on a conn that
// supports write deadlines, so a wedged peer surfaces as a *ConnError.
func OpenSession(conn io.ReadWriter, store *pagestore.Store, reply func(Reply), writeTimeout time.Duration) *Session {
	s := &Session{
		conn:         conn,
		addr:         connAddr(conn),
		store:        store,
		reply:        reply,
		writeTimeout: writeTimeout,
		resident:     make(map[pagestore.Key]struct{}),
		lastFrame:    time.Now(),
		done:         make(chan struct{}),
	}
	if d, ok := conn.(interface{ SetWriteDeadline(time.Time) error }); ok && writeTimeout > 0 {
		s.deadline = d.SetWriteDeadline
	}
	go s.read()
	return s
}

// read is the reader goroutine: it runs until the server's 'D' (nil), its 'E'
// (*RemoteError), a broken stream (*ConnError naming the verdict awaited) or
// a frame that is not the protocol's (ErrProtocol).
func (s *Session) read() {
	defer close(s.done)
	for {
		typ, payload, err := ReadFrame(s.conn)
		if err != nil {
			s.err = &ConnError{Addr: s.addr, Op: "read verdict", Packet: s.verdicts, Err: err}
			return
		}
		s.mu.Lock()
		s.lastFrame = time.Now()
		s.mu.Unlock()
		switch typ {
		case FrameVerdict:
			var r Reply
			if err := json.Unmarshal(payload, &r); err != nil {
				s.err = fmt.Errorf("%w: bad verdict frame: %v", ErrProtocol, err)
				return
			}
			s.verdicts++
			s.reply(r)
		case FrameHeartbeat:
			// A pong; arriving is all it is for (see Idle).
		case FrameError:
			s.err = &RemoteError{Msg: string(payload)}
			return
		case FrameDone:
			return
		default:
			s.err = fmt.Errorf("%w: unexpected frame type %q", ErrProtocol, typ)
			return
		}
	}
}

// Done is closed when the session has ended; Wait then returns how.
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session ends: nil after the server's 'D',
// *RemoteError after its 'E', *ConnError{Op: "read verdict"} on a broken
// stream (Packet is the number of verdicts that did arrive), an
// ErrProtocol-wrapped error on a malformed one.
func (s *Session) Wait() error {
	<-s.done
	return s.err
}

// Idle is how long the connection has been silent inbound. Any frame counts:
// a node slowed by a deep queue but still streaming verdicts is alive.
func (s *Session) Idle() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.lastFrame)
}

// Resident is the number of distinct chunks this connection holds.
func (s *Session) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident)
}

// write puts one frame on the wire; pkt is the index of the packet the frame
// belongs to, -1 for none. Callers hold the write side (lock).
func (s *Session) write(op string, pkt int, typ byte, payload []byte) error {
	if s.werr == nil {
		if err := WriteFrame(s.conn, typ, payload); err != nil {
			s.werr = &ConnError{Addr: s.addr, Op: op, Packet: pkt, Err: err}
		}
	}
	return s.werr
}

// lock takes the write side for one Send, Ping or Finish and, where the
// session bounds writes, arms one deadline over all of it; unlock undoes both.
func (s *Session) lock() {
	s.wmu.Lock()
	if s.deadline != nil {
		s.deadline(time.Now().Add(s.writeTimeout)) //nolint:errcheck // an unbounded write is the fallback
	}
}

func (s *Session) unlock() {
	if s.deadline != nil {
		s.deadline(time.Time{}) //nolint:errcheck
	}
	s.wmu.Unlock()
}

// Send uploads the chunks pkt references that this connection does not hold
// yet, then the packet. The server numbers a session's verdicts from zero in
// Send order.
func (s *Session) Send(pkt *packet.CheckPacket) (SendStats, error) {
	s.lock()
	defer s.unlock()
	var st SendStats
	s.keybuf = pkt.ChunkKeys(s.keybuf[:0])
	for _, k := range s.keybuf {
		if _, held := s.resident[k]; held {
			st.Resident++
			continue
		}
		data := s.store.Get(k)
		if data == nil {
			continue // not ours to judge: the server's verdict will name the chunk
		}
		payload := make([]byte, 8+len(data))
		binary.LittleEndian.PutUint64(payload, uint64(k))
		copy(payload[8:], data)
		if err := s.write("send chunk", s.sent, FrameChunk, payload); err != nil {
			return st, err
		}
		s.mu.Lock()
		s.resident[k] = struct{}{}
		s.mu.Unlock()
		st.Chunks++
		st.ChunkBytes += uint64(len(data))
	}
	if err := s.write("send packet", s.sent, FramePacket, packet.Encode(pkt)); err != nil {
		return st, err
	}
	s.sent++
	return st, nil
}

// Ping writes a heartbeat; the server echoes it and the echo refreshes Idle.
func (s *Session) Ping(payload []byte) error {
	s.lock()
	defer s.unlock()
	return s.write("send heartbeat", -1, FrameHeartbeat, payload)
}

// Finish tells the server no more packets are coming: it drains its queue,
// sends the remaining verdicts and then its own 'D', after which Wait
// returns nil.
func (s *Session) Finish() error {
	s.lock()
	defer s.unlock()
	return s.write("send done", -1, FrameDone, nil)
}
