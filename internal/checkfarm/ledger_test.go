package checkfarm

import (
	"testing"

	"parallaft/internal/checkd"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry/profile"
)

// TestFarmMergesRemoteLedgerSlices: a three-node farm run with the overhead
// ledger attached to the originating runtime. Every node ships one ledger
// slice per verdict, in its Reply; the farm merges them by trace ID into
// the remote-verify stage, the dispatcher charges its own host stages, and
// the local attribution invariant still reconciles exactly — remote cost
// rides in host stages, never in the simulated books.
func TestFarmMergesRemoteLedgerSlices(t *testing.T) {
	ledger := profile.NewLedger()
	store := pagestore.New(core.PageHashSeed)
	var pkts []*packet.CheckPacket
	cfg := smallSliceConfig()
	cfg.Ledger = ledger
	cfg.Export = &packet.Exporter{
		Store: store,
		Sink:  func(p *packet.CheckPacket) error { pkts = append(pkts, p); return nil },
	}
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 7)
	l := oskernel.NewLoader(k, m.PageSize, 7)
	e := sim.New(m, k, l)
	rt := core.NewRuntime(e, cfg)
	if _, err := rt.Run(victimProgram(240_000)); err != nil {
		t.Fatalf("protected run: %v", err)
	}
	if len(pkts) < 4 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}

	farm := New(store, Options{Ledger: ledger})
	for i := 0; i < 3; i++ {
		n := startKillableNode(t, checkd.Options{Workers: 2})
		if err := farm.AddNode(n.Spec); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(farm)
	for _, p := range pkts {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	farm.Close()
	if vs := got(); len(vs) != len(pkts) {
		t.Fatalf("verdicts = %d, want %d", len(vs), len(pkts))
	}

	sum := ledger.Summarize()
	stage := func(name string) *profile.HostStageSummary {
		for i := range sum.Host {
			if sum.Host[i].Stage == name {
				return &sum.Host[i]
			}
		}
		t.Fatalf("host stage %q missing from ledger summary (have %+v)", name, sum.Host)
		return nil
	}
	rv := stage(profile.StageRemoteVerify)
	if rv.Count != len(pkts) {
		t.Errorf("remote-verify slices = %d, want one per packet (%d)", rv.Count, len(pkts))
	}
	if rv.SimNs <= 0 || rv.SimJ <= 0 || rv.HostNs <= 0 {
		t.Errorf("remote-verify slice totals empty: simns=%v simj=%v hostns=%d",
			rv.SimNs, rv.SimJ, rv.HostNs)
	}
	if d := stage(profile.StageFarmDispatch); d.Count != len(pkts) {
		t.Errorf("farm-dispatch charges = %d, want %d", d.Count, len(pkts))
	}
	if u := stage(profile.StageFarmUpload); u.Count != len(pkts) {
		t.Errorf("farm-upload charges = %d, want %d", u.Count, len(pkts))
	}
	// The export stage was charged by the runtime during the run.
	if ex := stage(profile.StageExport); ex.Count != len(pkts) {
		t.Errorf("export charges = %d, want %d", ex.Count, len(pkts))
	}

	// Remote accounting must not disturb the local attribution invariant.
	if err := ledger.Reconcile(e.M); err != nil {
		t.Fatalf("reconcile after farm merge: %v", err)
	}
}

// TestFarmLedgerDedupesRedispatch: a duplicate slice for the same trace ID
// (a redispatched packet judged twice) is merged exactly once.
func TestFarmLedgerDedupesRedispatch(t *testing.T) {
	ledger := profile.NewLedger()
	sl := profile.Slice{TraceID: 42, HostNs: 10, SimNs: 100, SimJ: 1}
	ledger.MergeRemote(sl)
	ledger.MergeRemote(sl)
	sum := ledger.Summarize()
	if len(sum.Host) != 1 || sum.Host[0].Count != 1 {
		t.Fatalf("duplicate slice merged twice: %+v", sum.Host)
	}
}
