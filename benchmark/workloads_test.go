package main

import (
	"testing"

	"parallaft/internal/checkd"
	"parallaft/internal/packet"
	"parallaft/internal/stats"
)

// Every workload at a tiny size: set-up, an untraced and a traced rep that
// must agree on the simulated output, the invariants, the out-of-region
// checks, and every end-to-end metric present and non-zero. Tiny enough
// for -short and -race; the benchmark itself is not run by `go test`.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range defs {
		d := &defs[i]
		t.Run(d.name, func(t *testing.T) {
			tr := newTracer(d.name + "-test")
			root := tr.begin(nil, "harness", "all")
			w, err := d.setup(777, tinySize, tr, root)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := w.rep(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.rep(tr, root)
			if err != nil {
				t.Fatal(err)
			}
			root.end()
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failed ops: %v %v", plain.note, traced.note)
			}
			if plain.attempted == 0 || plain.sim == "" {
				t.Fatalf("rep reported nothing: %+v", plain)
			}
			if plain.sim != traced.sim {
				t.Errorf("traced rep changed the simulated output:\n%s\nvs\n%s", plain.sim, traced.sim)
			}
			if plain.work != traced.work || plain.minstr <= 0 || plain.verdicts <= 0 || plain.runs <= 0 {
				t.Errorf("work per rep: untraced %+v, traced %+v", plain.work, traced.work)
			}
			if err := w.verify(); err != nil {
				t.Error(err)
			}
			if n := len(tr.snapshot()); n < 3 {
				t.Errorf("only %d spans around set-up and a traced rep", n)
			}

			m := &measured{d: d, setupS: []float64{0.1}, repS: []float64{0.5}}
			m.add(plain)
			for name, v := range m.endToEnd() {
				if !(v > 0) {
					t.Errorf("%s = %v: an end-to-end metric is never 0", name, v)
				}
			}
			m.add(repOut{work: plain.work, sim: plain.sim + "x"})
			if m.failed != 1 {
				t.Errorf("a rep whose simulated output changed must count as failed, got %d", m.failed)
			}
		})
	}
}

// At the default seed inject_campaign is stats.Runner.RunFig10's campaign.
func TestInjectCampaignIsRunFig10(t *testing.T) {
	w, err := setupInject(defaultSeed, tinySize, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.rep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRunner()
	r.Seed, r.Parallel = defaultSeed, injectWorkers
	rows, err := r.RunFig10(tinySize.injectNames, injectTrials, tinySize.injectScale)
	if err != nil {
		t.Fatal(err)
	}
	if want := stats.FormatFig10(rows); got.sim != want {
		t.Errorf("own campaigns:\n%s\nRunFig10:\n%s", got.sim, want)
	}
}

// The negative control itself: the checker rejects a flipped end-state
// hash and accepts the untouched packet, so verify cannot pass on a
// checker that skips the comparison — and would fail on one that rejects
// everything.
func TestFlippedHashIsRejected(t *testing.T) {
	x, err := buildExport(777, tinySize, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := x.flipped()
	if err != nil {
		t.Fatal(err)
	}
	vs, err := checkd.CheckAll(x.store, []*packet.CheckPacket{bad}, offloadOpts)
	if err != nil || len(vs) != 1 {
		t.Fatalf("CheckAll: %v, %d verdicts", err, len(vs))
	}
	if vs[0].OK || vs[0].Infra != "" {
		t.Errorf("flipped packet: %+v", vs[0])
	}
	good, err := checkd.CheckAll(x.store, x.pkts, offloadOpts)
	if err != nil {
		t.Fatal(err)
	}
	var out repOut
	countBad(&out, good)
	if out.failed != 0 || out.attempted != len(x.pkts) {
		t.Errorf("clean packets: %d of %d failed: %v", out.failed, out.attempted, out.note)
	}
	countBad(&out, vs)
	if out.failed != 1 {
		t.Errorf("countBad must count a rejected packet")
	}
}

// Later passes over the packet list must repeat the first; the pinned
// output is the first pass only, so offload_verify and farm_stream share it.
func TestOffloadSimIsFirstPass(t *testing.T) {
	vs := []checkd.Verdict{{Seq: 0, ProgName: "a", OK: true}, {Seq: 1, ProgName: "b", OK: true}}
	twice := append(append([]checkd.Verdict{}, vs...), checkd.Verdict{Seq: 2, ProgName: "a", OK: true}, checkd.Verdict{Seq: 3, ProgName: "b", OK: true})
	var out repOut
	one, err := offloadSim(&out, vs, 2)
	if err != nil {
		t.Fatal(err)
	}
	two, err := offloadSim(&out, twice, 2)
	if err != nil || one != two || out.failed != 0 {
		t.Errorf("two passes: %q vs %q, failed %d, err %v", one, two, out.failed, err)
	}
	twice[3].OK = false
	if _, _ = offloadSim(&out, twice, 2); out.failed != 1 {
		t.Error("a second pass that differs must fail")
	}
	if _, _ = offloadSim(&out, twice[:3], 2); out.failed != 2 {
		t.Error("a short stream must fail")
	}
}
