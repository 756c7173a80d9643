// Package checkfarm shards sealed check packets across a fleet of checkd
// nodes, one checkd.Session each (Unix or TCP; the session uploads every
// content-addressed chunk a node needs at most once), with heartbeat-based
// liveness and elastic failover: when a node dies mid-campaign its in-flight
// packets are re-dispatched to surviving nodes, and verdicts are still
// delivered to the consumer in submission order, exactly once per packet.
//
// The farm is a dispatcher, not a checker: every verdict is produced by a
// checkd executor on some node, so a healthy farm is byte-identical to the
// in-process checker. Only when a packet cannot be checked anywhere (every
// node dead, or a packet evicted more than MaxAttempts times) does the farm
// synthesise an infrastructure verdict, typed via Verdict.InfraErr.
package checkfarm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"parallaft/internal/checkd"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/telemetry"
)

// ErrNoNodes reports a farm with no live nodes: Submit fails fast with it,
// and packets stranded in the queue when the last node dies resolve to
// infrastructure verdicts wrapping it. Either way the campaign sees a clean
// typed error instead of a hang.
var ErrNoNodes = errors.New("checkfarm: no live nodes")

// ErrClosed reports use of a farm after Close began.
var ErrClosed = errors.New("checkfarm: farm closed")

// errHeartbeat is the eviction reason for a node that stopped answering.
var errHeartbeat = errors.New("checkfarm: heartbeat timeout")

// writeTimeout bounds every frame write, and the wait for a node's last
// verdicts at Close, so a wedged peer surfaces as an eviction instead of a
// stuck dispatcher.
const writeTimeout = 30 * time.Second

// Options configures a Farm. The zero value is usable: default dialer,
// half-second heartbeats with a two-second timeout, three dispatch attempts
// per packet, no telemetry.
type Options struct {
	// Dial connects to a node spec ("tcp:host:port" or a Unix socket
	// path). Defaults to Dial; tests inject failing transports here.
	Dial func(spec string) (net.Conn, error)

	// HeartbeatInterval is how often each node is pinged; Timeout is how
	// long the farm tolerates no inbound frames (verdicts count as life)
	// before evicting the node.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	// MaxAttempts caps how many nodes a packet may be dispatched to before
	// the farm gives up with an infrastructure verdict.
	MaxAttempts int

	// Metrics receives the paft_farm_* instruments when set.
	Metrics *telemetry.Registry

	// Trace, when set, is the event recorder. It receives causal-trace stage
	// spans for every packet that carries a trace ID: dispatch, upload,
	// remote-verify (the node's own span, shipped back in the verdict's Reply
	// and re-attributed to the node's track), verdict-remap and delivery. Node
	// eviction and poison-packet exhaustion note themselves and dump its
	// black box (via the recorder's configured directory). Nil disables
	// tracing at zero cost.
	Trace *telemetry.Recorder
}

func (o *Options) withDefaults() {
	if o.Dial == nil {
		o.Dial = Dial
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 4 * o.HeartbeatInterval
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
}

// flight is one submitted packet's journey: a global sequence number (the
// delivery order), the packet, and how many nodes it has been tried on.
type flight struct {
	seq      int
	pkt      *packet.CheckPacket
	attempts int

	// Stage timestamps for the per-stage latency histograms and trace
	// spans. enqueuedAt restarts on every requeue (Submit and eviction),
	// so dispatch wait measures the current wait, not cumulative history.
	enqueuedAt time.Time
	sentAt     time.Time // last dispatch
	uploadDone time.Time // last upload completed; zero until then
}

// span is the stage span of this flight for one stage and actor; the caller
// fills in what the stage adds (Attempt, Detail).
func (fl *flight) span(stage, actor string, start, end time.Time) telemetry.StageSpan {
	return telemetry.StageSpan{
		TraceID:     fl.pkt.TraceID,
		Stage:       stage,
		Actor:       actor,
		Prog:        fl.pkt.ProgName,
		Segment:     fl.pkt.Segment,
		StartUnixNs: start.UnixNano(),
		EndUnixNs:   end.UnixNano(),
		Seq:         fl.seq,
	}
}

// node is one checkd session. Its executor numbers verdicts from zero in its
// own submission order, so the farm keeps a local-seq → flight map and
// rewrites sequence numbers on receipt.
type node struct {
	spec  string
	idx   int    // stable per-address metric index; survives rejoin
	actor string // "node<idx>", this node's track on the merged trace
	conn  net.Conn
	sess  *checkd.Session

	// Guarded by Farm.mu.
	bySeq       map[int]*flight
	localSeq    int
	dead        bool
	draining    bool
	evictReason error
	verdicts    int
	uploads     int
	uploadBytes uint64

	stopHB sync.Once
	hbStop chan struct{}
}

// Farm dispatches packets across nodes. Construct with New, add nodes with
// AddNode, feed packets with Submit, and read the ordered verdict stream from
// Verdicts — concurrently with submission, or executor backpressure on the
// nodes will eventually stall the campaign. Close drains and closes the
// verdict channel.
type Farm struct {
	opts  Options
	store *pagestore.Store
	tm    farmMetrics

	mu   sync.Mutex
	cond *sync.Cond // guards every field below; broadcast on any change

	nodes   []*node        // live
	all     []*node        // every node ever added, for NodeStats
	nodeIdx map[string]int // spec → stable metric index
	rr      int            // round-robin cursor

	pending    []*flight          // awaiting dispatch, sorted by seq
	unresolved int                // submitted but not yet resolved to a verdict
	ready      map[int]readyEntry // resolved, awaiting in-order delivery
	nextSeq    int
	deliverSeq int
	closed     bool

	out            chan checkd.Verdict
	dispatcherDone chan struct{}
	deliveryDone   chan struct{}
}

// New creates a farm over the given chunk store (the one the packets'
// ChunkKeys resolve in) and starts its dispatcher. Add at least one node
// before submitting.
func New(store *pagestore.Store, opts Options) *Farm {
	opts.withDefaults()
	f := &Farm{
		opts:           opts,
		store:          store,
		tm:             newFarmMetrics(opts.Metrics),
		nodeIdx:        make(map[string]int),
		ready:          make(map[int]readyEntry),
		out:            make(chan checkd.Verdict, 64),
		dispatcherDone: make(chan struct{}),
		deliveryDone:   make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	go f.dispatcher()
	go f.delivery()
	return f
}

// Verdicts is the ordered verdict stream: one verdict per submitted packet,
// in submission order, closed by Close after the last delivery.
func (f *Farm) Verdicts() <-chan checkd.Verdict { return f.out }

// AddNode dials a node and puts it in the dispatch rotation. Joining is
// elastic — mid-campaign joins start with a cold chunk cache and pick up the
// next dispatched packets.
func (f *Farm) AddNode(spec string) error {
	conn, err := f.opts.Dial(spec)
	if err != nil {
		return fmt.Errorf("checkfarm: dial %s: %w", spec, err)
	}
	n := &node{
		spec:   spec,
		conn:   conn,
		bySeq:  make(map[int]*flight),
		hbStop: make(chan struct{}),
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	idx, ok := f.nodeIdx[spec]
	if !ok {
		idx = len(f.nodeIdx)
		f.nodeIdx[spec] = idx
	}
	n.idx = idx
	n.actor = fmt.Sprintf("node%d", idx)
	// The session must be open before the dispatcher can pick the node.
	n.sess = checkd.OpenSession(conn, f.store, func(r checkd.Reply) { f.onReply(n, r) }, writeTimeout)
	f.nodes = append(f.nodes, n)
	f.all = append(f.all, n)
	f.tm.joins.Inc()
	f.tm.liveNodes.Set(float64(len(f.nodes)))
	f.cond.Broadcast()
	f.mu.Unlock()

	go func() {
		// A clean end is Close's 'D' exchange; anything else is the node's.
		if err := n.sess.Wait(); err != nil {
			f.evict(n, err)
		}
	}()
	go f.heartbeater(n)
	return nil
}

// Submit queues one sealed packet for checking. It fails fast with ErrNoNodes
// when the farm has no live nodes and ErrClosed after Close.
func (f *Farm) Submit(pkt *packet.CheckPacket) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if len(f.nodes) == 0 {
		return ErrNoNodes
	}
	f.pending = append(f.pending, &flight{seq: f.nextSeq, pkt: pkt, enqueuedAt: time.Now()})
	f.nextSeq++
	f.unresolved++
	f.tm.submitted.Inc()
	f.tm.inflight.Set(float64(f.unresolved))
	f.cond.Broadcast()
	return nil
}

// Close drains the farm: no new submissions, every already-submitted packet
// resolves to exactly one verdict (re-dispatching across evictions as
// needed), the verdict channel is closed, and every node session ends with a
// clean 'D' exchange. The caller must be consuming Verdicts concurrently.
func (f *Farm) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.deliveryDone
		return
	}
	f.closed = true
	f.cond.Broadcast()
	for f.unresolved > 0 {
		f.cond.Wait()
	}
	live := append([]*node(nil), f.nodes...)
	for _, n := range live {
		n.draining = true
	}
	f.nodes = nil
	f.tm.liveNodes.Set(0)
	f.cond.Broadcast()
	f.mu.Unlock()

	for _, n := range live {
		n.stopHB.Do(func() { close(n.hbStop) })
		if n.sess.Finish() == nil {
			select {
			case <-n.sess.Done():
			case <-time.After(writeTimeout):
			}
		}
		n.conn.Close()
	}
	<-f.dispatcherDone
	<-f.deliveryDone
}

// dispatcher is the single goroutine that moves pending flights onto nodes,
// so a node's packets reach its session in local-seq order.
func (f *Farm) dispatcher() {
	defer close(f.dispatcherDone)
	for {
		f.mu.Lock()
		for len(f.pending) == 0 && !(f.closed && f.unresolved == 0) {
			f.cond.Wait()
		}
		if len(f.pending) == 0 {
			f.mu.Unlock()
			return
		}
		fl := f.pending[0]
		f.pending = f.pending[1:]
		if f.resolvedLocked(fl.seq) {
			f.mu.Unlock()
			continue
		}
		if len(f.nodes) == 0 {
			// Submission raced the last eviction; resolve cleanly rather
			// than hold the packet hostage waiting for a join.
			f.opts.Trace.Note("stranded",
				fmt.Sprintf("%s seg %d: no live nodes", fl.pkt.ProgName, fl.pkt.Segment))
			f.resolveLocked(fl, nil,
				checkd.NewInfraVerdict(fl.pkt, fmt.Errorf("%w: packet %s seg %d stranded",
					ErrNoNodes, fl.pkt.ProgName, fl.pkt.Segment)))
			f.mu.Unlock()
			continue
		}
		if fl.attempts >= f.opts.MaxAttempts {
			f.resolveLocked(fl, nil,
				checkd.NewInfraVerdict(fl.pkt, fmt.Errorf(
					"checkfarm: packet %s seg %d abandoned after %d dispatch attempts",
					fl.pkt.ProgName, fl.pkt.Segment, fl.attempts)))
			f.mu.Unlock()
			// A poison packet exhausted its budget: black-box moment.
			f.opts.Trace.Note("poison-exhausted",
				fmt.Sprintf("%s seg %d: %d attempts", fl.pkt.ProgName, fl.pkt.Segment, fl.attempts))
			f.opts.Trace.DumpToDir("farm", "poison-exhausted", f.opts.Metrics)
			continue
		}
		n := f.nodes[f.rr%len(f.nodes)]
		f.rr++
		fl.attempts++
		fl.sentAt = time.Now()
		n.bySeq[n.localSeq] = fl
		n.localSeq++
		attempt, enqueuedAt := fl.attempts, fl.enqueuedAt // an eviction from here on restamps enqueuedAt
		f.mu.Unlock()

		traced := f.opts.Trace != nil && fl.pkt.TraceID != 0
		f.tm.dispatchWait.Observe(fl.sentAt.Sub(enqueuedAt).Seconds())
		if traced {
			sp := fl.span(telemetry.StageDispatch, "farm", enqueuedAt, fl.sentAt)
			sp.Attempt, sp.Detail = attempt, n.actor
			f.opts.Trace.Record(sp)
		}

		// Upload without the lock: the session bounds its writes itself. What
		// did go out is counted even when the node died partway.
		st, err := n.sess.Send(fl.pkt)
		uploadEnd := time.Now()
		f.mu.Lock()
		n.uploads += st.Chunks
		n.uploadBytes += st.ChunkBytes
		if err == nil {
			fl.uploadDone = uploadEnd
		}
		f.mu.Unlock()
		f.tm.chunkUploads.Add(uint64(st.Chunks))
		f.tm.chunkUploadBytes.Add(st.ChunkBytes)
		f.tm.chunkCacheHits.Add(uint64(st.Resident))
		if err != nil {
			f.evict(n, err)
			continue
		}
		f.tm.uploadTime.Observe(uploadEnd.Sub(fl.sentAt).Seconds())
		if traced {
			sp := fl.span(telemetry.StageUpload, n.actor, fl.sentAt, uploadEnd)
			sp.Attempt, sp.Detail = attempt, fmt.Sprintf("chunks=%d", st.Chunks)
			f.opts.Trace.Record(sp)
		}
	}
}

// onReply takes one verdict frame from a node's session: the node-local
// sequence number is rewritten to the global one, the flight resolves, and
// the node's remote-verify span joins the farm's trace: it called itself
// "checkd" and carried the local seq, and on the merged timeline it is this
// node's track and the global sequence. A reply with no flight behind it is a
// duplicate or a straggler from after the node's eviction and is dropped
// whole.
func (f *Farm) onReply(n *node, r checkd.Reply) {
	arrival := time.Now()
	f.mu.Lock()
	fl := n.bySeq[r.Seq]
	if fl == nil {
		f.mu.Unlock()
		return
	}
	delete(n.bySeq, r.Seq)
	// Remote verify as the farm sees it: upload completion (or the
	// dispatch write if the upload end was never stamped) to the
	// verdict's arrival.
	verifyStart := fl.uploadDone
	if verifyStart.IsZero() {
		verifyStart = fl.sentAt
	}
	f.tm.remoteVerify.Observe(arrival.Sub(verifyStart).Seconds())
	f.resolveLocked(fl, n, r.Verdict)
	attempt := fl.attempts
	f.mu.Unlock()

	if f.opts.Trace == nil || fl.pkt.TraceID == 0 {
		return
	}
	sp := fl.span(telemetry.StageRemap, "farm", arrival, time.Now())
	sp.Attempt, sp.Detail = attempt, n.actor
	f.opts.Trace.Record(sp)
	if r.Span != nil {
		r.Span.Actor, r.Span.Seq = n.actor, fl.seq
		f.opts.Trace.Record(*r.Span)
	}
}

// heartbeater pings one node and evicts it when nothing — pong or verdict —
// has arrived within the timeout. Liveness is any inbound frame, so a node
// slowed by a deep executor queue but still streaming verdicts is never
// falsely evicted.
func (f *Farm) heartbeater(n *node) {
	tick := time.NewTicker(f.opts.HeartbeatInterval)
	defer tick.Stop()
	var ping [8]byte
	var seq uint64
	for {
		select {
		case <-n.hbStop:
			return
		case <-tick.C:
		}
		if silent := n.sess.Idle(); silent > f.opts.HeartbeatTimeout {
			f.evict(n, fmt.Errorf("%w: %s silent for %v", errHeartbeat, n.spec, silent.Round(time.Millisecond)))
			return
		}
		seq++
		binary.LittleEndian.PutUint64(ping[:], seq)
		if err := n.sess.Ping(ping[:]); err != nil {
			f.evict(n, err)
			return
		}
		f.tm.heartbeats.Inc()
	}
}

// evict takes a node out of rotation and requeues its unresolved flights, in
// sequence order, for re-dispatch. Safe to call from any goroutine and
// idempotent per node; the first caller wins.
func (f *Farm) evict(n *node, reason error) {
	f.mu.Lock()
	if n.dead || n.draining {
		f.mu.Unlock()
		return
	}
	n.dead = true
	n.evictReason = reason
	for i, ln := range f.nodes {
		if ln == n {
			f.nodes = append(f.nodes[:i], f.nodes[i+1:]...)
			break
		}
	}
	stranded := make([]*flight, 0, len(n.bySeq))
	for _, fl := range n.bySeq {
		if !f.resolvedLocked(fl.seq) {
			fl.enqueuedAt = time.Now() // the dispatch wait restarts here
			fl.uploadDone = time.Time{}
			stranded = append(stranded, fl)
		}
	}
	n.bySeq = make(map[int]*flight)
	sort.Slice(stranded, func(i, j int) bool { return stranded[i].seq < stranded[j].seq })
	f.pending = append(f.pending, stranded...)
	sort.Slice(f.pending, func(i, j int) bool { return f.pending[i].seq < f.pending[j].seq })
	if len(stranded) > 0 {
		f.tm.redispatches.Add(uint64(len(stranded)))
	}
	f.tm.evictions.Inc()
	f.tm.liveNodes.Set(float64(len(f.nodes)))
	f.cond.Broadcast()
	f.mu.Unlock()

	n.stopHB.Do(func() { close(n.hbStop) })
	n.conn.Close()

	// Black-box moment: dump the flight ring so the post-mortem shows what
	// the farm saw in the window before this node went away.
	f.opts.Trace.Note("evict",
		fmt.Sprintf("node%d %s: %v (%d packets redispatched)", n.idx, n.spec, reason, len(stranded)))
	f.opts.Trace.DumpToDir(fmt.Sprintf("node%d", n.idx), "node-eviction", f.opts.Metrics)
}

// readyEntry is one resolved verdict awaiting in-order delivery, with the
// flight and resolve time the delivery stage's span needs (the Verdict itself
// stays exactly what the node produced).
type readyEntry struct {
	v          checkd.Verdict
	resolvedAt time.Time
	fl         *flight
}

// resolveLocked records a flight's final verdict (node-produced or
// infrastructure). Exactly-once: a flight that already resolved — a verdict
// raced an eviction, or a redispatched copy answered twice — is dropped.
// Callers hold f.mu.
func (f *Farm) resolveLocked(fl *flight, n *node, v checkd.Verdict) {
	if f.resolvedLocked(fl.seq) {
		return
	}
	v.Seq = fl.seq
	f.ready[fl.seq] = readyEntry{v: v, resolvedAt: time.Now(), fl: fl}
	f.unresolved--
	if n != nil {
		n.verdicts++
	}
	f.tm.verdicts.Inc()
	if v.Infra != "" {
		f.tm.infraVerdicts.Inc()
	}
	f.tm.inflight.Set(float64(f.unresolved))
	f.cond.Broadcast()
}

// resolvedLocked reports whether seq has its verdict: delivered already, or
// in ready awaiting delivery. Callers hold f.mu.
func (f *Farm) resolvedLocked(seq int) bool {
	_, ok := f.ready[seq]
	return ok || seq < f.deliverSeq
}

// delivery releases verdicts to the consumer in global submission order.
func (f *Farm) delivery() {
	defer close(f.deliveryDone)
	defer close(f.out)
	for {
		f.mu.Lock()
		for {
			if _, ok := f.ready[f.deliverSeq]; ok {
				break
			}
			if f.closed && f.unresolved == 0 && len(f.pending) == 0 && f.deliverSeq == f.nextSeq {
				f.mu.Unlock()
				return
			}
			f.cond.Wait()
		}
		e := f.ready[f.deliverSeq]
		delete(f.ready, f.deliverSeq)
		f.deliverSeq++
		f.mu.Unlock()
		released := time.Now()
		f.tm.deliveryWait.Observe(released.Sub(e.resolvedAt).Seconds())
		if f.opts.Trace != nil && e.fl.pkt.TraceID != 0 {
			f.opts.Trace.Record(e.fl.span(telemetry.StageDelivery, "farm", e.resolvedAt, released))
		}
		f.out <- e.v
	}
}

// NodeStats is a point-in-time snapshot of one node (live or evicted), for
// campaign summaries and the soak harness's at-most-once upload assertion:
// Uploads counts chunk frames written and CacheSize distinct keys the
// session holds, so they are equal exactly when no chunk crossed twice.
type NodeStats struct {
	Addr        string
	Index       int
	Live        bool
	Uploads     int
	UploadBytes uint64
	CacheSize   int
	Verdicts    int
	EvictReason string
}

// NodeStats snapshots every node ever added, in join order.
func (f *Farm) NodeStats() []NodeStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]NodeStats, 0, len(f.all))
	for _, n := range f.all {
		s := NodeStats{
			Addr:        n.spec,
			Index:       n.idx,
			Live:        !n.dead && !n.draining,
			Uploads:     n.uploads,
			UploadBytes: n.uploadBytes,
			CacheSize:   n.sess.Resident(), // not the session's write lock: a wedged peer holds that
			Verdicts:    n.verdicts,
		}
		if n.evictReason != nil {
			s.EvictReason = n.evictReason.Error()
		}
		out = append(out, s)
	}
	return out
}
