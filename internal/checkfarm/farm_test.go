package checkfarm

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parallaft/internal/checkd"
	"parallaft/internal/packet"
	"parallaft/internal/telemetry"
)

func TestParseAddr(t *testing.T) {
	cases := []struct{ spec, network, addr string }{
		{"tcp:127.0.0.1:9141", "tcp", "127.0.0.1:9141"},
		{"tcp:[::1]:9141", "tcp", "[::1]:9141"},
		{"/run/checkd.sock", "unix", "/run/checkd.sock"},
		{"checkd.sock", "unix", "checkd.sock"},
	}
	for _, tc := range cases {
		network, addr := ParseAddr(tc.spec)
		if network != tc.network || addr != tc.addr {
			t.Errorf("ParseAddr(%q) = (%q, %q), want (%q, %q)",
				tc.spec, network, addr, tc.network, tc.addr)
		}
		if got := IsTCP(tc.spec); got != (tc.network == "tcp") {
			t.Errorf("IsTCP(%q) = %v", tc.spec, got)
		}
	}
}

// TestFarmMatchesInProcess is the baseline: a healthy two-node farm delivers
// the exact verdicts the in-process checker produces, in submission order,
// and shared chunks go over each node's wire at most once.
func TestFarmMatchesInProcess(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 4 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	want, err := checkd.CheckAll(store, pkts, checkd.Options{Workers: 2})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}

	reg := telemetry.NewRegistry()
	a := startKillableNode(t, checkd.Options{Workers: 2})
	b := startKillableNode(t, checkd.Options{Workers: 2})
	farm := New(store, Options{Metrics: reg})
	if err := farm.AddNode(a.Spec); err != nil {
		t.Fatal(err)
	}
	if err := farm.AddNode(b.Spec); err != nil {
		t.Fatal(err)
	}
	got := collect(farm)
	for _, p := range pkts {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	farm.Close()

	vs := got()
	if !reflect.DeepEqual(vs, want) {
		t.Fatalf("farm verdicts differ from in-process:\n farm %+v\nlocal %+v", vs, want)
	}
	for _, ns := range farm.NodeStats() {
		if ns.Uploads != ns.CacheSize {
			t.Errorf("node %s: %d uploads for %d cached chunks; dedup must make these equal",
				ns.Addr, ns.Uploads, ns.CacheSize)
		}
		if ns.Verdicts == 0 {
			t.Errorf("node %s produced no verdicts; round-robin should reach both nodes", ns.Addr)
		}
	}
	if hits := metricValue(reg, "paft_farm_chunk_cache_hits_total"); hits == 0 {
		t.Error("no chunk cache hits across a multi-packet campaign sharing pages")
	}
	if n := metricValue(reg, "paft_farm_verdicts_total"); n != float64(len(pkts)) {
		t.Errorf("paft_farm_verdicts_total = %v, want %d", n, len(pkts))
	}
}

// TestFarmMissingChunkIsAVerdictNotAnEviction: a packet naming a chunk the
// farm's own store does not hold says nothing about any node. It goes out
// like any other, the node answers with the daemon's missing-chunk verdict —
// the one CheckAll gives — and its neighbours' packets are checked as usual.
// Reading the gap as a node failure would evict the whole healthy fleet, node
// by node, over one bad packet.
func TestFarmMissingChunkIsAVerdictNotAnEviction(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 4 {
		t.Fatalf("want at least 4 packets, got %d", len(pkts))
	}
	bad := *pkts[1]
	bad.Start.Pages = append([]packet.PageRef(nil), bad.Start.Pages...)
	bad.Start.Pages[0].Key ^= 1
	if store.Contains(bad.Start.Pages[0].Key) {
		t.Fatal("the flipped key names a chunk the store holds")
	}
	four := []*packet.CheckPacket{pkts[0], &bad, pkts[2], pkts[3]}
	want, err := checkd.CheckAll(store, four, checkd.Options{Workers: 2})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	if !errors.Is(want[1].InfraErr(), checkd.ErrMissingChunk) || !want[0].OK || !want[2].OK || !want[3].OK {
		t.Fatalf("in-process reference is not one missing-chunk verdict among three passes: %+v", want)
	}

	reg := telemetry.NewRegistry()
	farm := New(store, Options{Metrics: reg})
	for i := 0; i < 3; i++ {
		if err := farm.AddNode(startKillableNode(t, checkd.Options{Workers: 1}).Spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range four {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	var got []checkd.Verdict
	for range four {
		got = append(got, <-farm.Verdicts())
	}
	for _, ns := range farm.NodeStats() {
		if !ns.Live || ns.EvictReason != "" {
			t.Errorf("node %s did not survive the bad packet: %+v", ns.Addr, ns)
		}
	}
	farm.Close()
	if n := metricValue(reg, "paft_farm_node_evictions_total"); n != 0 {
		t.Errorf("%v evictions over a chunk no node was ever responsible for", n)
	}
	// The typed InfraErr stays on the node's side of the wire; everything a
	// verdict carries over it must match.
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("farm verdicts differ from in-process:\n farm %s\nlocal %s", gotJSON, wantJSON)
	}
}

// limitedConn hard-fails all writes after a byte budget, standing in for a
// node whose host dies while the dispatcher is mid-chunk-upload.
type limitedConn struct {
	net.Conn
	mu   sync.Mutex
	left int
}

func (c *limitedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		c.Conn.Close()
		return 0, io.ErrClosedPipe
	}
	if len(p) > c.left {
		n := c.left
		c.left = 0
		c.Conn.Write(p[:n]) //nolint:errcheck
		c.Conn.Close()
		return n, io.ErrClosedPipe
	}
	c.left -= len(p)
	return c.Conn.Write(p)
}

// TestFarmNodeDiesMidChunkUpload: the first node's transport dies partway
// through the chunk stream — before it ever holds a checkable packet. Every
// packet must still resolve, on the surviving node, to the in-process
// verdicts.
func TestFarmNodeDiesMidChunkUpload(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	want, err := checkd.CheckAll(store, pkts, checkd.Options{Workers: 2})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}

	flaky := startKillableNode(t, checkd.Options{Workers: 1})
	good := startKillableNode(t, checkd.Options{Workers: 2})
	opts := Options{
		Dial: func(spec string) (net.Conn, error) {
			conn, err := Dial(spec)
			if err != nil || spec != flaky.Spec {
				return conn, err
			}
			// Enough budget to get into the first packet's one full-page
			// chunk (pages are PageSize-sized), not through it.
			return &limitedConn{Conn: conn, left: 10_000}, nil
		},
	}
	farm := New(store, opts)
	if err := farm.AddNode(flaky.Spec); err != nil {
		t.Fatal(err)
	}
	if err := farm.AddNode(good.Spec); err != nil {
		t.Fatal(err)
	}
	got := collect(farm)
	for _, p := range pkts {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	farm.Close()
	defer func() {
		if t.Failed() { // name the cause: which node went, and why
			for _, s := range farm.NodeStats() {
				t.Logf("node %d (%s): live %v, %d verdicts, evicted: %q", s.Index, s.Addr, s.Live, s.Verdicts, s.EvictReason)
			}
		}
	}()

	if vs := got(); !reflect.DeepEqual(vs, want) {
		t.Fatalf("verdicts after mid-upload death differ from in-process:\n farm %+v\nlocal %+v", vs, want)
	}
	stats := farm.NodeStats()
	if stats[0].Live || stats[0].EvictReason == "" {
		t.Errorf("flaky node not evicted: %+v", stats[0])
	}
	if chunks := len(pkts[0].ChunkKeys(nil)); stats[0].Uploads >= chunks {
		t.Errorf("flaky node took %d chunk uploads; it was to die inside the first packet's %d", stats[0].Uploads, chunks)
	}
	if stats[0].Verdicts != 0 {
		t.Errorf("flaky node produced %d verdicts after dying mid-upload", stats[0].Verdicts)
	}
}

// TestFarmNodeDiesAfterVerdict: a node answers some packets and is then
// killed before the campaign ends. Already-delivered verdicts must not be
// re-dispatched (exactly once per packet), the remainder moves to a node
// that joined mid-campaign. The run is traced with the black box armed, so
// the kill also pins the observability side: the eviction dumps the black box
// — stage spans included, which a flight-dir-only run's ring never saw while
// spans went to a separate tracer — and redispatched chains carry both
// dispatch attempts.
func TestFarmNodeDiesAfterVerdict(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 3 {
		t.Fatalf("want at least 3 packets, got %d", len(pkts))
	}
	want, err := checkd.CheckAll(store, pkts, checkd.Options{Workers: 2})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}

	a := startKillableNode(t, checkd.Options{Workers: 1})
	b := startKillableNode(t, checkd.Options{Workers: 2})
	flightDir := t.TempDir()
	rec := telemetry.NewRecorder(0)
	rec.SetDir(flightDir)
	// Node A is handed packet 0 and nothing after it, so what it still owes
	// when it dies does not depend on how fast it checks.
	gate := newGate(1)
	farm := New(store, Options{Trace: rec, Dial: gate.dial(a.Spec)})
	if err := farm.AddNode(a.Spec); err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// The first verdict proves node A answered; it dies owing the rest,
	// after the elastic join of node B.
	first := <-farm.Verdicts()
	if err := farm.AddNode(b.Spec); err != nil {
		t.Fatal(err)
	}
	gate.waitHeld(t)
	a.Kill()
	rest := collect(farm)
	farm.Close()

	vs := append([]checkd.Verdict{first}, rest()...)
	if len(vs) != len(pkts) {
		t.Fatalf("%d verdicts for %d packets", len(vs), len(pkts))
	}
	for i, v := range vs {
		if v.Seq != i {
			t.Fatalf("verdict %d has seq %d; order and exactly-once broken: %+v", i, v.Seq, vs)
		}
	}
	if !reflect.DeepEqual(vs, want) {
		t.Fatalf("verdicts after node death differ from in-process:\n farm %+v\nlocal %+v", vs, want)
	}

	// The eviction dumped the black box: one JSONL file for the killed node,
	// holding the eviction note.
	dumps, err := filepath.Glob(filepath.Join(flightDir, "flight-node0-*.jsonl"))
	if err != nil || len(dumps) != 1 {
		t.Fatalf("want exactly one flight dump for node0, got %v (err %v)", dumps, err)
	}
	dump, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), `"flight_dump":"node-eviction"`) {
		t.Errorf("dump header missing the eviction reason:\n%s", dump)
	}
	if !strings.Contains(string(dump), `"kind":"evict"`) {
		t.Errorf("dump ring missing the evict note:\n%s", dump)
	}
	if !strings.Contains(string(dump), `"stage":"dispatch"`) || !strings.Contains(string(dump), `"stage":"upload"`) {
		t.Errorf("dump ring missing the dispatch and upload stage spans:\n%s", dump)
	}

	// Redispatched packets repeat the dispatch stage under the same trace ID
	// with a higher attempt, so failovers read as forked chains.
	attempts := make(map[uint64]int)
	for _, s := range rec.Records() {
		if s.Stage == telemetry.StageDispatch && s.Attempt > attempts[s.TraceID] {
			attempts[s.TraceID] = s.Attempt
		}
	}
	redispatched := 0
	for _, n := range attempts {
		if n > 1 {
			redispatched++
		}
	}
	if redispatched == 0 {
		t.Error("no trace chain shows a second dispatch attempt after the kill")
	}
	// Every chain that was dispatched eventually records a delivery span.
	deliveries := 0
	for _, s := range rec.Records() {
		if s.Stage == telemetry.StageDelivery {
			deliveries++
		}
	}
	if deliveries != len(pkts) {
		t.Errorf("%d delivery spans for %d packets", deliveries, len(pkts))
	}
}

// TestFarmRejoinColdCache: an evicted address can rejoin. The new session
// starts with a cold chunk cache (the server keeps per-connection stores, so
// nothing survives), re-uploads what it needs, and keeps its stable metric
// index.
func TestFarmRejoinColdCache(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	want, err := checkd.CheckAll(store, pkts, checkd.Options{Workers: 2})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}

	n := startKillableNode(t, checkd.Options{Workers: 1})
	survivor := startKillableNode(t, checkd.Options{Workers: 1})
	farm := New(store, Options{})
	if err := farm.AddNode(n.Spec); err != nil {
		t.Fatal(err)
	}
	if err := farm.AddNode(survivor.Spec); err != nil {
		t.Fatal(err)
	}
	got := collect(farm)
	half := len(pkts) / 2
	for _, p := range pkts[:half] {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// Crash just the sessions; the listener survives, so the same address
	// accepts the rejoin. The survivor keeps the campaign alive meanwhile.
	n.KillConns()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := farm.NodeStats(); !s[0].Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eviction of the crashed node never observed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := farm.AddNode(n.Spec); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for _, p := range pkts[half:] {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit after rejoin: %v", err)
		}
	}
	farm.Close()

	if vs := got(); !reflect.DeepEqual(vs, want) {
		t.Fatalf("verdicts across a rejoin differ from in-process:\n farm %+v\nlocal %+v", vs, want)
	}
	stats := farm.NodeStats()
	if len(stats) != 3 {
		t.Fatalf("want 3 node instances (original, survivor, rejoin), got %+v", stats)
	}
	rejoined := stats[2]
	if rejoined.Index != stats[0].Index {
		t.Errorf("rejoined node changed metric index: %d then %d", stats[0].Index, rejoined.Index)
	}
	if rejoined.Uploads == 0 || rejoined.CacheSize == 0 {
		t.Errorf("rejoined node should re-upload into a cold cache: %+v", rejoined)
	}
	if rejoined.Uploads != rejoined.CacheSize {
		t.Errorf("rejoined node uploads %d != cache %d; dedup broken", rejoined.Uploads, rejoined.CacheSize)
	}
}

// TestFarmAllNodesDead: with every node gone, in-queue packets resolve to
// typed infrastructure verdicts and new submissions fail fast — no hang in
// either direction.
func TestFarmAllNodesDead(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))

	n := startKillableNode(t, checkd.Options{Workers: 1})
	// Eviction here is driven purely by the broken connection (the default
	// heartbeat is far slower than a closed socket's read error).
	farm := New(store, Options{MaxAttempts: 100})
	if err := farm.AddNode(n.Spec); err != nil {
		t.Fatal(err)
	}
	got := collect(farm)
	n.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := farm.NodeStats(); !s[0].Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eviction never observed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := farm.Submit(pkts[0]); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Submit with no nodes = %v, want ErrNoNodes", err)
	}
	farm.Close()
	if vs := got(); len(vs) != 0 {
		t.Fatalf("verdicts from a dead farm: %+v", vs)
	}
	if err := farm.Submit(pkts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := farm.AddNode(n.Spec); !errors.Is(err, ErrClosed) && err == nil {
		t.Fatalf("AddNode after Close = %v, want an error", err)
	}
}

// TestFarmStrandedPacketsGetInfraVerdicts: packets already accepted when the
// last node dies resolve to infrastructure verdicts wrapping ErrNoNodes —
// typed, ordered, exactly one per packet.
func TestFarmStrandedPacketsGetInfraVerdicts(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))

	// The node accepts the TCP session but never answers a frame, so
	// submissions park in flight until the heartbeat evicts it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c) //nolint:errcheck
		}
	}()

	farm := New(store, Options{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  40 * time.Millisecond,
	})
	if err := farm.AddNode("tcp:" + ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	got := collect(farm)
	for _, p := range pkts {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	farm.Close()

	vs := got()
	if len(vs) != len(pkts) {
		t.Fatalf("%d verdicts for %d packets", len(vs), len(pkts))
	}
	for i, v := range vs {
		if v.Seq != i {
			t.Errorf("verdict %d has seq %d", i, v.Seq)
		}
		if v.OK || v.Infra == "" {
			t.Fatalf("stranded packet got a non-infra verdict: %+v", v)
		}
		if !errors.Is(v.InfraErr(), ErrNoNodes) {
			t.Errorf("InfraErr = %v, want ErrNoNodes", v.InfraErr())
		}
	}
	stats := farm.NodeStats()
	if stats[0].Live {
		t.Fatal("silent node still live")
	}
	if !strings.Contains(stats[0].EvictReason, "heartbeat") {
		t.Errorf("evict reason %q does not name the heartbeat timeout", stats[0].EvictReason)
	}
}
