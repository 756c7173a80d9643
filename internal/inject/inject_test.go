package inject

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parallaft/internal/campaign"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

func newEngine() *sim.Engine {
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 11)
	l := oskernel.NewLoader(k, m.PageSize, 11)
	return sim.New(m, k, l)
}

func TestOutcomeStrings(t *testing.T) {
	names := map[Outcome]string{
		OutcomeDetected: "detected", OutcomeException: "exception",
		OutcomeTimeout: "timeout", OutcomeBenign: "benign", OutcomeFailed: "failed",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestTargetString(t *testing.T) {
	cases := map[string]Target{
		"x3 bit 17":   {Class: proc.GPRClass, Index: 3, Bit: 17},
		"f5 bit 63":   {Class: proc.FPRClass, Index: 5, Bit: 63},
		"v2[1] bit 9": {Class: proc.VRClass, Index: 2, Lane: 1, Bit: 9},
	}
	for want, tgt := range cases {
		if tgt.String() != want {
			t.Errorf("Target.String() = %q, want %q", tgt.String(), want)
		}
	}
}

func TestRandTargetCoversAllClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[proc.RegClass]bool{}
	for i := 0; i < 200; i++ {
		tgt := randTarget(rng)
		seen[tgt.Class] = true
		switch tgt.Class {
		case proc.GPRClass:
			if tgt.Index >= 16 {
				t.Fatalf("gpr index %d", tgt.Index)
			}
		case proc.FPRClass:
			if tgt.Index >= 8 {
				t.Fatalf("fpr index %d", tgt.Index)
			}
		case proc.VRClass:
			if tgt.Index >= 4 || tgt.Lane >= 4 {
				t.Fatalf("vr %d[%d]", tgt.Index, tgt.Lane)
			}
		}
		if tgt.Bit >= 64 {
			t.Fatalf("bit %d", tgt.Bit)
		}
	}
	if len(seen) != 3 {
		t.Errorf("classes drawn: %v", seen)
	}
}

func TestReportAccounting(t *testing.T) {
	rep := &Report{
		Trials: []Trial{
			{Outcome: OutcomeDetected}, {Outcome: OutcomeBenign},
			{Outcome: OutcomeException}, {Outcome: OutcomeFailed},
		},
	}
	rep.Counts[OutcomeDetected] = 1
	rep.Counts[OutcomeBenign] = 1
	rep.Counts[OutcomeException] = 1
	rep.Counts[OutcomeFailed] = 1
	// rates are over landed trials (3)
	if got := rep.Rate(OutcomeDetected); got != 1.0/3 {
		t.Errorf("rate = %v", got)
	}
	if !rep.DetectionComplete() {
		t.Error("report with only detected/benign/exception outcomes marked incomplete")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	mk := func() *Campaign {
		return &Campaign{
			NewEngine:        newEngine,
			Program:          testProgram(),
			Config:           cfg,
			TrialsPerSegment: 1,
			Seed:             42,
		}
	}
	r1, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Trials) != len(r2.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(r1.Trials), len(r2.Trials))
	}
	for i := range r1.Trials {
		a, b := r1.Trials[i], r2.Trials[i]
		if a.Outcome != b.Outcome || a.Target != b.Target || a.Segment != b.Segment {
			t.Errorf("trial %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestCampaignDetectsEverythingNonBenign(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	c := &Campaign{
		NewEngine:        newEngine,
		Program:          testProgram(),
		Config:           cfg,
		TrialsPerSegment: 2,
		Seed:             7,
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DetectionComplete() {
		for _, tr := range rep.Trials {
			t.Logf("%+v", tr)
		}
		t.Fatal("a non-benign fault escaped — violates the §5.6 guarantee")
	}
}

func TestCampaignParallelMatchesSerial(t *testing.T) {
	// The golden determinism guarantee: per-trial seed derivation makes the
	// report identical for every worker count, trial for trial.
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	run := func(parallel int) *Report {
		c := &Campaign{
			NewEngine:        newEngine,
			Program:          testProgram(),
			Config:           cfg,
			TrialsPerSegment: 2,
			Seed:             42,
			Parallel:         parallel,
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(4)
	if len(serial.Trials) != len(parallel.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(serial.Trials), len(parallel.Trials))
	}
	for i := range serial.Trials {
		if serial.Trials[i] != parallel.Trials[i] {
			t.Errorf("trial %d differs:\n serial   %+v\n parallel %+v",
				i, serial.Trials[i], parallel.Trials[i])
		}
	}
	if serial.Counts != parallel.Counts {
		t.Errorf("outcome counts differ: %v vs %v", serial.Counts, parallel.Counts)
	}
}

func TestCampaignRejectsPhantomConfig(t *testing.T) {
	// A config that would flag errors on a clean run must abort the
	// campaign at the profile stage rather than report garbage.
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	cfg.ReplicaHook = func(_, _ int, c *proc.Process, _ float64) {
		c.Regs.X[1] ^= 1 // sabotage the profile run itself
	}
	camp := &Campaign{NewEngine: newEngine, Program: testProgram(), Config: cfg, Seed: 1}
	if _, err := camp.Run(); err == nil {
		t.Error("campaign accepted a profile run with detections")
	}
}

// trialHook is a run from t=0's Config.ReplicaHook: it flips the target bit
// in replica 0 of the segment once the checker has run atNs, and reports
// whether it did through landed.
func trialHook(segment int, atNs float64, target Target, landed *bool) func(int, int, *proc.Process, float64) {
	return func(segIdx, rep int, checker *proc.Process, elapsed float64) {
		if *landed || rep != 0 || segIdx != segment || elapsed < atNs {
			return
		}
		checker.FlipRegisterBit(target.Class, target.Index, target.Lane, target.Bit)
		*landed = true
	}
}

// judge classifies a run from t=0 as a trial; a run that failed is a failed
// row, with the error as its detail.
func judge(tr Trial, stats *core.RunStats, err error) Trial {
	if err != nil {
		tr.Outcome, tr.Detail = OutcomeFailed, err.Error()
		return tr
	}
	return classify(tr, stats.Detected)
}

// fromScratch runs a campaign's trials the way they ran before forks: each
// attempt a fresh runtime from t=0 with the trial's hook, its draws taken in
// the same order, redrawn while the flip does not land. It returns the
// trials in report order and the number of redraws.
func fromScratch(t *testing.T, c *Campaign) ([]Trial, int) {
	t.Helper()
	prof, err := core.NewRuntime(c.NewEngine(), c.Config).Run(c.Program)
	if err != nil {
		t.Fatal(err)
	}
	var trials []Trial
	redraws := 0
	for _, st := range prof.Segments {
		for trial := 0; st.CheckerNs > 0 && trial < c.trials(); trial++ {
			rng := rand.New(rand.NewSource(campaign.DeriveSeed(c.Seed, "inject", c.Program.Name,
				fmt.Sprintf("seg%d", st.Index), fmt.Sprintf("trial%d", trial))))
			var tr Trial
			for attempt := 0; attempt < maxDraws; attempt++ {
				at, target := rng.Float64()*1.1*st.CheckerNs, randTarget(rng)
				var landed bool
				cfg := c.Config
				cfg.ReplicaHook = trialHook(st.Index, at, target, &landed)
				stats, err := core.NewRuntime(c.NewEngine(), cfg).Run(c.Program)
				tr = Trial{Segment: st.Index, AtNs: at, Target: target, Outcome: OutcomeFailed}
				if err != nil || landed {
					tr = judge(tr, stats, err)
				}
				if tr.Outcome != OutcomeFailed {
					if tr.Outcome == OutcomeBenign && (string(stats.Stdout) != string(prof.Stdout) || stats.ExitCode != prof.ExitCode) {
						tr.Detail = "output differs without detection"
					}
					break
				}
				redraws++
			}
			trials = append(trials, tr)
		}
	}
	return trials, redraws
}

// TestSharedPrefixTrialsMatchFromScratch: every trial a campaign starts from
// a snapshot — segment, injection instant, target, outcome and detail — is
// the trial run from t=0, for the paper's one checker and for three diverse
// replicas, with a seed whose draws include redraws.
func TestSharedPrefixTrialsMatchFromScratch(t *testing.T) {
	one := core.DefaultConfig()
	one.SlicePeriodCycles = 150_000
	three := one
	three.Checkers, three.Diversity = 3, []string{"skid2x", "coldcache"}
	quantum := one
	quantum.Checkers, quantum.Diversity = 3, []string{"quantum"}
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"main+1", one}, {"main+3 skid2x,coldcache", three}, {"main+3 quantum", quantum}} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Campaign{NewEngine: newEngine, Program: testProgram(), Config: tc.cfg,
				TrialsPerSegment: 2, Seed: 4, Parallel: 2}
			rep, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, redraws := fromScratch(t, c)
			if redraws == 0 {
				t.Error("no trial redrew: pick a seed whose draws miss the checker")
			}
			if len(rep.Trials) != len(want) {
				t.Fatalf("%d trials, %d from t=0", len(rep.Trials), len(want))
			}
			for i := range want {
				if rep.Trials[i] != want[i] {
					t.Errorf("trial %d:\n from a snapshot %+v\n from t=0        %+v", i, rep.Trials[i], want[i])
				}
			}
		})
	}
}

// TestCampaignBoundsForksAlive: however many segments retire with trials
// due, no more retained segments are alive than the campaign has workers,
// and no more simulations run at once — the timed run and the trials.
func TestCampaignBoundsForksAlive(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	for _, parallel := range []int{1, 2, 3} {
		c := &Campaign{NewEngine: newEngine, Program: testProgram(), Config: cfg,
			TrialsPerSegment: 4, Seed: 4, Parallel: parallel}
		rep, b, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		if b.peakRetained < 1 || b.peakRetained > parallel || b.retained != 0 {
			t.Errorf("Parallel %d: at most %d retained segments alive, %d at the end", parallel, b.peakRetained, b.retained)
		}
		if b.peakSims < 1 || b.peakSims > parallel || b.sims != 0 {
			t.Errorf("Parallel %d: at most %d simulations running, %d at the end", parallel, b.peakSims, b.sims)
		}
		t.Logf("Parallel %d: %d trials, at most %d retained segments and %d simulations alive",
			parallel, len(rep.Trials), b.peakRetained, b.peakSims)
	}
}

// TestCampaignRefusesRecovery: a recovered detection continues the run,
// which a trial ended at its segment's verdict cannot match, so a campaign
// with recovery is refused before it runs anything.
func TestCampaignRefusesRecovery(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.EnableRecovery = true
	c := &Campaign{NewEngine: func() *sim.Engine {
		t.Error("a campaign with recovery built an engine")
		return newEngine()
	}, Program: testProgram(), Config: cfg, Seed: 1}
	if _, err := c.Run(); err == nil {
		t.Error("a campaign with Config.EnableRecovery ran")
	}
}

// TestUnlandedFlipIsAnError: a planned flip the replay of its retained
// segment never reaches is the campaign's error, never a trial row.
func TestUnlandedFlipIsAnError(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	b := &book{rows: []Trial{{Segment: 0, AtNs: math.Inf(1), Outcome: OutcomeFailed}}}
	pr := campaign.NewProgressWith(nil, "", 0, nil)
	if _, err := core.NewRuntime(newEngine(), cfg).RunRetaining(testProgram(), func(stat core.SegmentStat, retain func() *core.Retained) {
		if stat.Index == 0 {
			b.alive(1, 0)
			b.runTrials(pr, retain(), []planned{{b.rows[0], 0, core.Turn{Instrs: math.MaxUint64}}})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if b.err == nil {
		t.Error("a flip the replay never reached was not the campaign's error")
	}
	if b.rows[0].Outcome != OutcomeFailed || b.rows[0].Detail != "" {
		t.Errorf("the trial whose flip never landed was judged: %+v", b.rows[0])
	}
}
