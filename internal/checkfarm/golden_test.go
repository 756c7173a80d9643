// The full-suite farm parity golden is the heaviest test in the package: it
// replays every workload's packets twice (in-process reference + farm). The
// !race tag keeps it out of `go test -race ./...`; `make golden` runs
// it explicitly, and the race-enabled soak test covers the same failover
// machinery at a size the race detector can afford.
//go:build !race

package checkfarm

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallaft/internal/checkd"
	"parallaft/internal/core"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/telemetry"
	"parallaft/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run Golden -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenFarmParityAllWorkloads is the farm's acceptance gate: the whole
// workload suite's packets, sharded over three nodes with one node killed
// and one joined mid-campaign, must produce verdicts byte-identical to the
// in-process checker — every sealed segment exactly one verdict, shared
// chunks over each node's wire at most once. The golden file pins the
// per-workload packet counts so segmentation drift surfaces as diff.
func TestGoldenFarmParityAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the full-suite double replay is the long way round")
	}
	suite := append(workload.All(), workload.Stress()...)
	store := pagestore.New(core.PageHashSeed)
	var allPkts []*packet.CheckPacket
	var sb strings.Builder
	for _, w := range suite {
		progs := w.Gen(0.05)
		prog := progs[0]
		stats, pkts := runExportedInto(t, store, smallSliceConfig(), prog)
		if stats.Detected != nil {
			t.Fatalf("%s: clean run detected in-process: %v", w.Name, stats.Detected)
		}
		allPkts = append(allPkts, pkts...)
		fmt.Fprintf(&sb, "%s prog=%s packets=%d\n", w.Name, prog.Name, len(pkts))
	}
	fmt.Fprintf(&sb, "total workloads=%d packets=%d\n", len(suite), len(allPkts))

	want, err := checkd.CheckAll(store, allPkts, checkd.Options{Workers: 4})
	if err != nil {
		t.Fatalf("reference CheckAll: %v", err)
	}

	reg := telemetry.NewRegistry()
	nodes := []*killableNode{
		startKillableNode(t, checkd.Options{Workers: 2}),
		startKillableNode(t, checkd.Options{Workers: 2}),
		startKillableNode(t, checkd.Options{Workers: 2}),
	}
	// The node to be killed stops taking packets after its first few, so the
	// kill finds work in flight on it however fast the nodes check.
	gate := newGate(8)
	farm := New(store, Options{Metrics: reg, Dial: gate.dial(nodes[0].Spec)})
	for _, n := range nodes {
		if err := farm.AddNode(n.Spec); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(farm)
	half := len(allPkts) / 2
	for _, p := range allPkts[:half] {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// Mid-campaign chaos: one node dies with work in flight, a fresh node
	// joins cold.
	gate.waitHeld(t)
	nodes[0].Kill()
	joined := startKillableNode(t, checkd.Options{Workers: 2})
	if err := farm.AddNode(joined.Spec); err != nil {
		t.Fatalf("mid-campaign join: %v", err)
	}
	for _, p := range allPkts[half:] {
		if err := farm.Submit(p); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	farm.Close()

	vs := got()
	if len(vs) != len(allPkts) {
		t.Fatalf("%d verdicts for %d packets: a verdict was lost or duplicated", len(vs), len(allPkts))
	}
	gotJSON, err := json.Marshal(vs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		for i := range vs {
			if vs[i] != want[i] {
				t.Fatalf("verdict %d diverged from in-process:\n farm %+v\nlocal %+v", i, vs[i], want[i])
			}
		}
		t.Fatal("farm verdicts not byte-identical to in-process checker")
	}

	// At-most-once chunk upload per node, asserted per instance and against
	// the farm-wide telemetry counters. A killed node may have cache-charged
	// keys whose upload never finished; a healthy node has uploaded exactly
	// its cache.
	var uploadTotal int
	for _, ns := range farm.NodeStats() {
		if ns.Uploads > ns.CacheSize {
			t.Errorf("node %s: %d uploads for %d cached chunks; a chunk went over the wire twice",
				ns.Addr, ns.Uploads, ns.CacheSize)
		}
		if ns.EvictReason == "" && ns.Uploads != ns.CacheSize {
			t.Errorf("node %s ended healthy with %d uploads for %d cached chunks",
				ns.Addr, ns.Uploads, ns.CacheSize)
		}
		uploadTotal += ns.Uploads
	}
	if up := metricValue(reg, "paft_farm_chunk_uploads_total"); up != float64(uploadTotal) {
		t.Errorf("paft_farm_chunk_uploads_total = %v, want %d (sum over nodes)", up, uploadTotal)
	}
	if hits := metricValue(reg, "paft_farm_chunk_cache_hits_total"); hits == 0 {
		t.Error("no cache hits across the whole suite; per-node dedup is not engaging")
	}
	if ev := metricValue(reg, "paft_farm_node_evictions_total"); ev < 1 {
		t.Errorf("paft_farm_node_evictions_total = %v, want >= 1 (a node was killed)", ev)
	}
	if rd := metricValue(reg, "paft_farm_redispatches_total"); rd < 1 {
		t.Errorf("paft_farm_redispatches_total = %v, want >= 1 (the kill had work in flight)", rd)
	}
	if j := metricValue(reg, "paft_farm_node_joins_total"); j != 4 {
		t.Errorf("paft_farm_node_joins_total = %v, want 4", j)
	}
	if n := metricValue(reg, "paft_farm_verdicts_total"); n != float64(len(allPkts)) {
		t.Errorf("paft_farm_verdicts_total = %v, want %d", n, len(allPkts))
	}
	if n := metricValue(reg, "paft_farm_infra_verdicts_total"); n != 0 {
		t.Errorf("paft_farm_infra_verdicts_total = %v, want 0 on a survivable campaign", n)
	}

	goldenCompare(t, "golden_farm_parity.txt", sb.String())
}
