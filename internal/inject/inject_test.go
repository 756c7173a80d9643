package inject

import (
	"fmt"
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

// fromScratch runs a campaign's trials the way they ran before snapshots:
// each attempt a fresh runtime from t=0 with the trial's hook, its draws
// taken in the same order. It returns the trials in report order and the
// number of redraws.
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
			var r ran
			for attempt := 0; attempt < maxDraws; attempt++ {
				at, target := rng.Float64()*1.1*st.CheckerNs, randTarget(rng)
				var landed bool
				cfg := c.Config
				cfg.ReplicaHook = trialHook(st.Index, at, target, &landed)
				stats, err := core.NewRuntime(c.NewEngine(), cfg).Run(c.Program)
				if r = judge(Trial{Segment: st.Index, AtNs: at, Target: target}, stats, err, landed); r.Outcome != OutcomeFailed {
					break
				}
				redraws++
			}
			if r.Outcome == OutcomeBenign && (string(r.stdout) != string(prof.Stdout) || r.exitCode != prof.ExitCode) {
				r.Detail = "output differs without detection"
			}
			trials = append(trials, r.Trial)
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
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"main+1", one}, {"main+3 skid2x,coldcache", three}} {
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
