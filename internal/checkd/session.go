package checkd

import (
	"bufio"
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
// the server answers with its ErrMissingChunk verdict, exactly as the
// in-process executor would.
//
// Send, Ping and Finish may be called from different goroutines; they are
// serialised, and each flushes its frames once before it returns. The reply
// callback runs on the session's reader goroutine, in verdict order; while it
// runs nothing is read, so it must not wait on the session's own writes.
type Session struct {
	conn  io.ReadWriter
	addr  string
	store *pagestore.Store
	reply func(Reply)

	// deadline is the conn's SetWriteDeadline when writes are to be bounded
	// and the conn can bound them, nil otherwise.
	deadline     func(time.Time) error
	writeTimeout time.Duration

	wmu    sync.Mutex    // held across one whole Send, Ping or Finish (lock/unlock)
	w      *bufio.Writer // over out, flushed before wmu is released
	out    countWriter   // the conn, counting the bytes it took
	queued int64         // bytes handed to w
	chunks []chunkMark   // the chunk frames in w
	hdr    [13]byte      // a frame header and, for a chunk, its key
	werr   error         // first write failure; the stream is cut mid-frame after it
	sent   int           // packets written, for ConnError.Packet
	keybuf []pagestore.Key

	mu        sync.Mutex                 // never held across I/O, so Idle and Resident never wait on a peer
	resident  map[pagestore.Key]struct{} // written under wmu and mu both, so Send reads it under wmu alone
	lastFrame time.Time

	verdicts int // verdict frames read; the reader goroutine's own
	done     chan struct{}
	err      error // the session's end state; written before done closes
}

// countWriter is the conn under a session's buffer: it counts the bytes the
// conn took, which is how a failed flush finds the frame it cut.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// chunkMark is a buffered chunk frame: where it ends in the stream, and what
// becomes resident once the conn has taken it whole.
type chunkMark struct {
	end  int64
	key  pagestore.Key
	size int
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
		out:          countWriter{w: conn},
		resident:     make(map[pagestore.Key]struct{}),
		lastFrame:    time.Now(),
		done:         make(chan struct{}),
	}
	s.w = bufio.NewWriterSize(&s.out, wireBuffer)
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
	r := newFrameReader(s.conn)
	for {
		typ, payload, err := r.next()
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

// write buffers one frame. A chunk's payload is its key and the store's own
// bytes, copied nowhere but into the buffer. w keeps the first failure.
func (s *Session) write(typ byte, key pagestore.Key, payload []byte) {
	h := s.hdr[:5]
	if typ == FrameChunk {
		h = binary.LittleEndian.AppendUint64(h, uint64(key))
	}
	h[0] = typ
	binary.LittleEndian.PutUint32(h[1:], uint32(len(h)-5+len(payload)))
	s.w.Write(h)       //nolint:errcheck // see flush
	s.w.Write(payload) //nolint:errcheck
	s.queued += int64(len(h) + len(payload))
	if typ == FrameChunk {
		s.chunks = append(s.chunks, chunkMark{s.queued, key, len(payload)})
	}
}

// flush ends a Send, Ping or Finish: it puts the buffered frames on the wire
// and commits (to resident and st) the chunk frames the conn took whole. A
// failure names the frame holding the first byte the conn did not take: a
// chunk, or else the call's last frame, op.
func (s *Session) flush(op string, pkt int, st *SendStats) error {
	err := s.w.Flush()
	s.mu.Lock()
	for _, c := range s.chunks {
		if err != nil && c.end > s.out.n {
			op = "send chunk"
			break
		}
		s.resident[c.key] = struct{}{}
		st.Chunks++
		st.ChunkBytes += uint64(c.size)
	}
	s.mu.Unlock()
	s.chunks = s.chunks[:0]
	if err != nil && s.werr == nil {
		s.werr = &ConnError{Addr: s.addr, Op: op, Packet: pkt, Err: err}
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
		} else if data := s.store.Get(k); data != nil { // else not ours to judge: the server's verdict will name the chunk
			s.write(FrameChunk, k, data)
		}
	}
	s.write(FramePacket, 0, packet.Encode(pkt))
	if err := s.flush("send packet", s.sent, &st); err != nil {
		return st, err
	}
	s.sent++
	return st, nil
}

// Ping writes a heartbeat; the server echoes it and the echo refreshes Idle.
func (s *Session) Ping(payload []byte) error {
	s.lock()
	defer s.unlock()
	s.write(FrameHeartbeat, 0, payload)
	return s.flush("send heartbeat", -1, nil) // no chunks, so no stats
}

// Finish tells the server no more packets are coming: it drains its queue,
// sends the remaining verdicts and then its own 'D', after which Wait
// returns nil.
func (s *Session) Finish() error {
	s.lock()
	defer s.unlock()
	s.write(FrameDone, 0, nil)
	return s.flush("send done", -1, nil)
}
