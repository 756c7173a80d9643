package checkfarm

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"parallaft/internal/asm"
	"parallaft/internal/checkd"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
)

// runExportedInto runs a program under the in-process runtime with packet
// export into a shared store, so several workloads' packets can travel one
// farm session (the store is content-addressed; the executors pin one config
// digest, which all workloads under one config share).
func runExportedInto(t *testing.T, store *pagestore.Store, cfg core.Config, prog *asm.Program) (*core.RunStats, []*packet.CheckPacket) {
	t.Helper()
	var pkts []*packet.CheckPacket
	cfg.Export = &packet.Exporter{
		Store: store,
		Sink:  func(p *packet.CheckPacket) error { pkts = append(pkts, p); return nil },
	}
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 7)
	l := oskernel.NewLoader(k, m.PageSize, 7)
	e := sim.New(m, k, l)
	rt := core.NewRuntime(e, cfg)
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatalf("protected run: %v", err)
	}
	return stats, pkts
}

func runExported(t *testing.T, cfg core.Config, prog *asm.Program) (*core.RunStats, *pagestore.Store, []*packet.CheckPacket) {
	t.Helper()
	store := pagestore.New(core.PageHashSeed)
	stats, pkts := runExportedInto(t, store, cfg, prog)
	return stats, store, pkts
}

// victimProgram is a multi-segment compute+memory loop (the same victim the
// checkd tests use): several sealed segments, a data buffer, a checksum.
func victimProgram(iters int64) *asm.Program {
	b := asm.NewBuilder("victim")
	b.Space("buf", 32*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, iters)
	b.Addr(4, "buf")
	b.Label("loop")
	b.AndI(5, 2, 4095)
	b.ShlI(5, 5, 3)
	b.AndI(5, 5, 32760)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.AndI(1, 1, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

func smallSliceConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	return cfg
}

// killableNode is a checkd server on a loopback TCP listener whose accepted
// connections can be hard-closed mid-session — the farm-side view of a node
// host dying without a goodbye.
type killableNode struct {
	Spec string
	srv  *checkd.Server
	t    *testing.T

	mu     sync.Mutex
	ln     net.Listener
	conns  []net.Conn
	killed bool
	done   chan struct{}
}

type trackingListener struct {
	net.Listener
	n *killableNode
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.n.mu.Lock()
	if l.n.killed {
		l.n.mu.Unlock()
		c.Close()
		return nil, net.ErrClosed
	}
	l.n.conns = append(l.n.conns, c)
	l.n.mu.Unlock()
	return c, nil
}

// startKillableNode serves checkd on 127.0.0.1 and returns the node; the
// test cleanup stops it if Kill was never called.
func startKillableNode(t *testing.T, opts checkd.Options) *killableNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	n := &killableNode{
		Spec: "tcp:" + ln.Addr().String(),
		srv:  checkd.NewServer(opts),
		t:    t,
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.srv.Serve(&trackingListener{Listener: ln, n: n}) //nolint:errcheck
	}()
	t.Cleanup(n.Kill)
	return n
}

// KillConns hard-closes every live session but keeps the listener: the node
// process "crashed and restarted" at the same address, ready for a rejoin
// with per-connection state (the chunk store) gone. The caller has dialled a
// session since the last kill; a session still in the listen backlog cannot
// be closed from here (the server would accept it afterwards and the node
// would never be seen to die), so wait for it to be accepted first.
func (n *killableNode) KillConns() {
	n.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	n.mu.Lock()
	for len(n.conns) == 0 {
		n.mu.Unlock()
		if time.Now().After(deadline) {
			n.t.Fatalf("node %s never accepted the session it is to crash", n.Spec)
		}
		time.Sleep(time.Millisecond)
		n.mu.Lock()
	}
	conns := n.conns
	n.conns = nil
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Kill hard-closes the listener and every live session: in-flight verdicts
// are lost, clients see broken connections. Idempotent.
func (n *killableNode) Kill() {
	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		return
	}
	n.killed = true
	conns := n.conns
	n.conns = nil
	n.mu.Unlock()
	n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	<-n.done
}

// gatedConn is a farm-side connection to a node that forwards the session's
// frames until a set number of packet frames have gone through whole, then
// swallows every later write as if the node had taken it. The node holds
// exactly that many checkable packets however fast it checks them, and
// whatever the dispatcher sends it afterwards stays in flight until the node
// is evicted. The first swallowed write closes held.
type gatedConn struct {
	net.Conn
	held chan struct{}

	mu       sync.Mutex
	packets  int  // packet frames still to forward
	body     int  // payload bytes of the frame being forwarded still to come
	inPacket bool // that frame is a packet frame
	shut     bool
}

func newGate(packets int) *gatedConn {
	return &gatedConn{held: make(chan struct{}), packets: packets}
}

// dial is an Options.Dial that puts the gate on the session to node and
// leaves every other session alone.
func (c *gatedConn) dial(node string) func(string) (net.Conn, error) {
	return func(spec string) (net.Conn, error) {
		conn, err := Dial(spec)
		if err != nil || spec != node {
			return conn, err
		}
		c.Conn = conn
		return c, nil
	}
}

// Write relies on checkd.WriteFrame handing over a frame's header in one
// piece.
func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shut {
		return len(p), nil
	}
	n := 0 // the prefix of p to forward
	for n < len(p) {
		if c.body == 0 {
			if c.packets == 0 {
				break
			}
			c.inPacket = p[n] == checkd.FramePacket
			c.body = int(binary.LittleEndian.Uint32(p[n+1:]))
			n += 5
			continue
		}
		take := min(c.body, len(p)-n)
		n += take
		c.body -= take
		if c.body == 0 && c.inPacket {
			c.packets--
		}
	}
	if n < len(p) {
		c.shut = true
		close(c.held)
	}
	if _, err := c.Conn.Write(p[:n]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// waitHeld blocks until the gate has swallowed its first write.
func (c *gatedConn) waitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-c.held:
	case <-time.After(15 * time.Second):
		t.Fatal("the dispatcher never sent the gated node more than it forwards")
	}
}

// metricValue reads one instrument's value from a registry snapshot, so
// tests never have to re-register (and re-state the help text of) the
// farm's instruments.
func metricValue(reg *telemetry.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// collect drains a farm's verdict stream into a slice from a goroutine;
// the returned func waits for the channel to close and hands the slice back.
func collect(f *Farm) func() []checkd.Verdict {
	var vs []checkd.Verdict
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range f.Verdicts() {
			vs = append(vs, v)
		}
	}()
	return func() []checkd.Verdict {
		<-done
		return vs
	}
}
