package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"parallaft/internal/checkd"
	"parallaft/internal/checkfarm"
	"parallaft/internal/core"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/telemetry"
	"parallaft/internal/workload"
)

// --- distributed check farm soak --------------------------------------------

// FarmRow is one workload's contribution to the farm soak campaign.
type FarmRow struct {
	Name    string
	Packets int
}

// FarmResult is the outcome of the check-farm soak: the stress suite's
// sealed segments sharded over a three-node checkd fleet with one node
// killed and one joined mid-campaign, verdicts compared byte-for-byte
// against the in-process checker.
type FarmResult struct {
	Rows []FarmRow

	checkd.Tally

	// Matched is true when the farm's verdict stream is byte-identical
	// (JSON encoding) to the in-process reference.
	Matched bool

	// DedupHeld is true when no node instance uploaded a chunk twice, and
	// every instance that ended healthy uploaded exactly its cache.
	DedupHeld bool

	NodesStarted int
	NodesKilled  int
	NodesJoined  int
}

// farmHost is an in-process checkd node on loopback TCP whose listener and
// live sessions can be hard-closed, standing in for a farm host dying
// without a goodbye.
type farmHost struct {
	spec string
	srv  *checkd.Server

	mu     sync.Mutex
	ln     net.Listener
	conns  []net.Conn
	killed bool
	done   chan struct{}
}

type hostListener struct {
	net.Listener
	h *farmHost
}

func (l *hostListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.h.mu.Lock()
	if l.h.killed {
		l.h.mu.Unlock()
		c.Close()
		return nil, net.ErrClosed
	}
	l.h.conns = append(l.h.conns, c)
	l.h.mu.Unlock()
	return c, nil
}

func startFarmHost(opts checkd.Options) (*farmHost, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &farmHost{
		spec: "tcp:" + ln.Addr().String(),
		srv:  checkd.NewServer(opts),
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		h.srv.Serve(&hostListener{Listener: ln, h: h}) //nolint:errcheck
	}()
	return h, nil
}

// kill hard-closes the listener and every live session. Idempotent.
func (h *farmHost) kill() {
	h.mu.Lock()
	if h.killed {
		h.mu.Unlock()
		return
	}
	h.killed = true
	conns := h.conns
	h.conns = nil
	h.mu.Unlock()
	h.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	<-h.done
}

// RunFarm runs the distributed-check-farm soak: every stress workload is
// executed under the protected runtime with packet export, the sealed
// segments are re-checked in-process (the reference) and then submitted to
// a three-node checkd fleet. Halfway through submission one node is killed
// with work in flight and a cold node joins; the campaign must still
// deliver exactly one verdict per segment, byte-identical to the reference,
// with no chunk crossing any node's wire twice.
func (r *Runner) RunFarm() (*FarmResult, error) {
	store := pagestore.New(core.PageHashSeed)
	var allPkts []*packet.CheckPacket
	res := &FarmResult{}

	for _, w := range workload.Stress() {
		before := len(allPkts)
		for _, prog := range w.Gen(r.Scale) {
			e := r.NewEngine()
			cfg := r.RuntimeConfig(ModeParallaft)
			cfg.Export = &packet.Exporter{
				Store: store,
				Sink:  func(p *packet.CheckPacket) error { allPkts = append(allPkts, p); return nil },
			}
			rt := core.NewRuntime(e, cfg)
			stats, err := rt.Run(prog)
			if err != nil {
				return nil, fmt.Errorf("farm: %s %s: %w", w.Name, prog.Name, err)
			}
			if stats.Detected != nil {
				return nil, fmt.Errorf("farm: %s: clean run detected in-process: %v", w.Name, stats.Detected)
			}
		}
		res.Rows = append(res.Rows, FarmRow{Name: w.Name, Packets: len(allPkts) - before})
	}

	want, err := checkd.CheckAll(store, allPkts, checkd.Options{Workers: 4})
	if err != nil {
		return nil, fmt.Errorf("farm: in-process reference: %w", err)
	}

	hosts := make([]*farmHost, 0, 4)
	defer func() {
		for _, h := range hosts {
			h.kill()
		}
	}()
	for i := 0; i < 3; i++ {
		h, err := startFarmHost(checkd.Options{Workers: 2})
		if err != nil {
			return nil, fmt.Errorf("farm: start node: %w", err)
		}
		hosts = append(hosts, h)
	}

	reg := r.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	farm := checkfarm.New(store, checkfarm.Options{Metrics: reg})
	for _, h := range hosts {
		if err := farm.AddNode(h.spec); err != nil {
			farm.Close()
			return nil, fmt.Errorf("farm: add node: %w", err)
		}
	}
	res.NodesStarted = 3

	var got []checkd.Verdict
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for v := range farm.Verdicts() {
			got = append(got, v)
		}
	}()

	half := len(allPkts) / 2
	for _, p := range allPkts[:half] {
		if err := farm.Submit(p); err != nil {
			farm.Close()
			<-collected
			return nil, fmt.Errorf("farm: submit: %w", err)
		}
	}
	// Mid-campaign chaos: one node dies with work in flight, a cold node
	// joins; the survivors and the newcomer absorb the rest.
	hosts[0].kill()
	joined, err := startFarmHost(checkd.Options{Workers: 2})
	if err != nil {
		farm.Close()
		<-collected
		return nil, fmt.Errorf("farm: start joining node: %w", err)
	}
	hosts = append(hosts, joined)
	if err := farm.AddNode(joined.spec); err != nil {
		farm.Close()
		<-collected
		return nil, fmt.Errorf("farm: mid-campaign join: %w", err)
	}
	res.NodesKilled, res.NodesJoined = 1, 1
	for _, p := range allPkts[half:] {
		if err := farm.Submit(p); err != nil {
			farm.Close()
			<-collected
			return nil, fmt.Errorf("farm: submit: %w", err)
		}
	}
	farm.Close()
	<-collected

	for _, v := range got {
		res.Add(v)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		return nil, err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return nil, err
	}
	res.Matched = len(got) == len(want) && bytes.Equal(gotJSON, wantJSON)

	res.DedupHeld = true
	for _, ns := range farm.NodeStats() {
		if ns.Uploads > ns.CacheSize {
			res.DedupHeld = false // a chunk went over the wire twice
		}
		if ns.EvictReason == "" && ns.Uploads != ns.CacheSize {
			res.DedupHeld = false
		}
	}
	return res, nil
}

// FormatFarm renders the soak outcome. Every line is deterministic — packet
// counts come from the simulated runs and the pass/fail facts from exact
// comparisons — so the output is stable across hosts and timing.
func FormatFarm(res *FarmResult) string {
	t := &Table{Header: []string{"workload", "packets"}}
	total := 0
	for _, row := range res.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%d", row.Packets))
		total += row.Packets
	}
	t.AddRow("total", fmt.Sprintf("%d", total))

	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	return fmt.Sprintf(
		"Distributed check farm soak: %d nodes, %d killed and %d joined mid-campaign\n%s\n"+
			"verdicts: %d  ok=%d diverged=%d infra=%d\n"+
			"one verdict per sealed segment: %s\n"+
			"byte-identical to in-process checker: %s\n"+
			"per-node chunk dedup held: %s",
		res.NodesStarted, res.NodesKilled, res.NodesJoined, t.String(),
		res.Verdicts, res.OK, res.Diverged, res.Infra,
		yes(res.Verdicts == total && res.Infra == 0),
		yes(res.Matched),
		yes(res.DedupHeld))
}
