package checkd

import (
	"fmt"
	"sync"
	"time"

	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/telemetry"
)

// Options configures an Executor.
type Options struct {
	// Workers is the number of concurrent replay workers (default 4). The
	// intake queue holds 2×Workers packets; a full queue makes Submit
	// block, applying backpressure to the producer.
	Workers int
	// Metrics, when set, receives the daemon's telemetry: queue depth,
	// worker utilization, verdict latency and counters. Executors (and the
	// socket server's per-connection stores) sharing one registry compose
	// into daemon-wide totals.
	Metrics *telemetry.Registry
	// Trace, when set, is the event recorder: it receives a remote-verify
	// stage span for every checked packet that carries a trace ID, a note
	// for every infrastructure verdict and, on a Server, every frame that
	// crosses the wire. Nil disables local recording.
	Trace *telemetry.Recorder

	// observe makes each verdict of a packet that carries a trace ID bring
	// its remote-verify span along (Verdict.span). Only the socket server
	// sets it, to put the span in the verdict's Reply; in-process users
	// neither pay for nor see it.
	observe bool
}

// Executor checks packets with a bounded worker pool and emits verdicts in
// submission order. It is the in-process transport of the checking service;
// the socket transport (Server) wraps one Executor per connection.
//
// Submit and Close must be called from a single producer goroutine;
// Verdicts is read by any single consumer.
type Executor struct {
	store *pagestore.Store
	opts  Options
	tm    checkdMetrics

	intake  chan job
	results chan verdictTimed
	out     chan Verdict
	wg      sync.WaitGroup
	reorder sync.WaitGroup

	mu     sync.Mutex
	digest uint64 // the stream's, pinned by its first accepted packet
	seq    int
	closed bool
}

type job struct {
	seq       int
	pkt       *packet.CheckPacket
	submitted time.Time // for the verdict-latency histogram; zero without metrics
}

// verdictTimed carries a verdict and its job's submission time through the
// reorder stage, so latency is observed at ordered delivery.
type verdictTimed struct {
	v         Verdict
	submitted time.Time
}

// NewExecutor creates an executor reading chunks from store.
func NewExecutor(store *pagestore.Store, opts Options) *Executor {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	depth := 2 * opts.Workers
	x := &Executor{
		store:   store,
		opts:    opts,
		tm:      newCheckdMetrics(opts.Metrics),
		intake:  make(chan job, depth),
		results: make(chan verdictTimed, depth),
		out:     make(chan Verdict, depth),
	}
	x.tm.workers.Add(float64(opts.Workers))
	for i := 0; i < opts.Workers; i++ {
		x.wg.Add(1)
		go x.worker()
	}
	x.reorder.Add(1)
	go x.reorderLoop()
	return x
}

// Verdicts is the ordered verdict stream: one verdict per accepted packet,
// in Submit order, closed after Close has drained the queue.
func (x *Executor) Verdicts() <-chan Verdict { return x.out }

// Submit validates a packet and enqueues it. Validation is synchronous so
// typed rejections (ErrVersion, ErrConfigDigest, ErrUnrunnable) surface
// immediately and a rejected packet never consumes a verdict slot. A full
// queue blocks.
func (x *Executor) Submit(pkt *packet.CheckPacket) error {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return ErrClosed
	}
	if err := x.admit(pkt); err != nil {
		x.mu.Unlock()
		x.tm.rejections.Inc()
		return err
	}
	j := job{seq: x.seq, pkt: pkt}
	x.seq++
	x.mu.Unlock()

	if x.opts.Metrics != nil {
		j.submitted = time.Now()
	}
	x.tm.submitted.Inc()
	x.tm.queueDepth.Add(1)
	x.intake <- j
	return nil
}

// maxPageSize is the largest page size a checker runs: 64 KiB, the largest
// arm64 base page (the machine presets use 4 and 16 KiB).
const maxPageSize = 64 << 10

// admit is Submit's validation; on success it pins the stream's digest.
// Called with x.mu held.
func (x *Executor) admit(pkt *packet.CheckPacket) error {
	if pkt.Version < packet.MinVersion || pkt.Version > packet.Version {
		return fmt.Errorf("%w: packet v%d, daemon speaks v%d..v%d",
			ErrVersion, pkt.Version, packet.MinVersion, packet.Version)
	}
	if d := pkt.Config.Digest(); d != pkt.ConfigDigest {
		return fmt.Errorf("%w: packet carries %#x but its config digests to %#x",
			ErrConfigDigest, pkt.ConfigDigest, d)
	}
	if x.seq > 0 && pkt.ConfigDigest != x.digest {
		return fmt.Errorf("%w: stream pinned to %#x, packet carries %#x",
			ErrConfigDigest, x.digest, pkt.ConfigDigest)
	}
	// A self-consistent digest says nothing about whether the values can be
	// run: a bad page size takes a worker down (mem.NewAddressSpace panics, a
	// huge zero page cannot be allocated), and no instruction ceiling holds
	// it forever on a guest that spins.
	if ps := pkt.Config.PageSize; ps == 0 || ps&(ps-1) != 0 || ps > maxPageSize {
		return fmt.Errorf("%w: page size %d is not a power of two up to %d", ErrUnrunnable, ps, maxPageSize)
	}
	if pkt.InstrLimit == 0 {
		return fmt.Errorf("%w: no instruction limit", ErrUnrunnable)
	}
	x.digest = pkt.ConfigDigest
	return nil
}

// Close stops intake, waits for in-flight packets to finish, and closes the
// verdict stream once every accepted packet has a verdict.
func (x *Executor) Close() {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	x.closed = true
	x.mu.Unlock()
	close(x.intake)
	x.wg.Wait()
	close(x.results)
	x.reorder.Wait()
}

func (x *Executor) worker() {
	defer x.wg.Done()
	defer x.tm.workers.Add(-1)
	c := newChecker()
	for j := range x.intake {
		x.tm.queueDepth.Add(-1)
		x.tm.busyWorkers.Add(1)
		v := x.check(c, j)
		x.tm.busyWorkers.Add(-1)
		x.results <- verdictTimed{v: v, submitted: j.submitted}
	}
}

// check runs one packet on the worker's checker, once. A chunk the store
// lacks is an infrastructure verdict at once: Session sends a packet's chunks
// ahead of the packet, so waiting would not make one appear.
func (x *Executor) check(c *checker, j job) Verdict {
	var start time.Time
	spanned := j.pkt.TraceID != 0 && (x.opts.observe || x.opts.Trace != nil)
	if spanned {
		start = time.Now()
	}
	v, err := c.check(x.store, j.pkt)
	v.Seq = j.seq
	if err != nil {
		v.OK = false
		v.Infra = err.Error()
		v.infraErr = err
		x.opts.Trace.Note("infra-verdict",
			fmt.Sprintf("%s seg %d: %v", j.pkt.ProgName, j.pkt.Segment, err))
	}
	if spanned {
		span := telemetry.StageSpan{
			TraceID:     j.pkt.TraceID,
			Stage:       telemetry.StageRemoteVerify,
			Actor:       "checkd",
			Prog:        j.pkt.ProgName,
			Segment:     j.pkt.Segment,
			StartUnixNs: start.UnixNano(),
			EndUnixNs:   time.Now().UnixNano(),
			Seq:         j.seq,
			Detail:      verdictClass(v),
		}
		x.opts.Trace.Record(span)
		if x.opts.observe {
			v.span = &span
		}
	}
	return v
}

// verdictClass summarizes a verdict for span detail: "ok", the error kind
// of a divergence, or "infra".
func verdictClass(v Verdict) string {
	switch {
	case v.OK:
		return "ok"
	case v.Infra != "":
		return "infra"
	default:
		return v.ErrorKind
	}
}

// reorderLoop restores submission order: workers finish out of order, the
// consumer sees verdicts in Submit order.
func (x *Executor) reorderLoop() {
	defer x.reorder.Done()
	defer close(x.out)
	pending := make(map[int]verdictTimed)
	next := 0
	for v := range x.results {
		pending[v.v.Seq] = v
		for {
			nv, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			x.tm.observeVerdict(nv.v)
			if !nv.submitted.IsZero() {
				x.tm.verdictLatency.Observe(time.Since(nv.submitted).Seconds())
			}
			x.out <- nv.v
		}
	}
	// Sequence numbers are dense, so the map is empty here; nothing to flush.
}

// CheckAll is the convenience in-process path: run every packet against the
// store and return the verdicts in order. Used by `paftcheckd -verify` and
// the parity tests.
func CheckAll(store *pagestore.Store, pkts []*packet.CheckPacket, opts Options) ([]Verdict, error) {
	x := NewExecutor(store, opts)
	var firstErr error
	done := make(chan []Verdict)
	go func() {
		var out []Verdict
		for v := range x.Verdicts() {
			out = append(out, v)
		}
		done <- out
	}()
	for _, p := range pkts {
		if err := x.Submit(p); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("packet %s seg %d: %w", p.ProgName, p.Segment, err)
		}
	}
	x.Close()
	return <-done, firstErr
}
