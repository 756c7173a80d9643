// Faultcampaign: a miniature §5.6 fault-injection campaign on one workload.
// Each segment's checker is profiled, then rerun several times with a
// random register bit flipped at a random instant; the outcome distribution
// (detected / exception / timeout / benign) is reported like figure 10.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"parallaft/internal/cli"
	"parallaft/internal/core"
	"parallaft/internal/inject"
	"parallaft/internal/machine"
	"parallaft/internal/stats"
	"parallaft/internal/workload"
)

func main() {
	bench := flag.String("benchmark", "456.hmmer", "workload to inject into")
	trials := flag.Int("trials", 3, "injection trials per segment")
	scale := flag.Float64("scale", 0.25, "workload scale")
	seed := flag.Int64("seed", 2024, "campaign seed")
	parallel := flag.Int("parallel", runtime.NumCPU(), "trial worker count (1 = serial; the report is identical for any value)")
	progress := flag.Bool("progress", false, "print per-trial progress/ETA lines to stderr")
	flag.Parse()

	if err := cli.Workers(*parallel); err != nil {
		log.Fatal(err)
	}
	w := workload.Get(*bench)
	if w == nil {
		log.Fatalf("unknown workload %q", *bench)
	}

	campaign := &inject.Campaign{
		NewEngine:        (&stats.Runner{MachineCfg: machine.AppleM2Like, Seed: 11}).NewEngine,
		Program:          w.Gen(*scale)[0],
		Config:           core.DefaultConfig(),
		TrialsPerSegment: *trials,
		Seed:             *seed,
		Parallel:         *parallel,
	}
	if *progress {
		campaign.Progress = os.Stderr
	}

	rep, err := campaign.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fault-injection campaign on %s (%d trials/segment):\n\n", *bench, *trials)
	for _, tr := range rep.Trials {
		if tr.Outcome == inject.OutcomeFailed {
			continue
		}
		fmt.Printf("  segment %2d  t'=%.0fus  %-14s -> %-9s %s\n",
			tr.Segment, tr.AtNs/1e3, tr.Target, tr.Outcome, tr.Detail)
	}
	fmt.Printf("\ntotals: detected=%d exception=%d timeout=%d benign=%d (failed redraws=%d)\n",
		rep.Counts[inject.OutcomeDetected], rep.Counts[inject.OutcomeException],
		rep.Counts[inject.OutcomeTimeout], rep.Counts[inject.OutcomeBenign],
		rep.Counts[inject.OutcomeFailed])
	if rep.DetectionComplete() {
		fmt.Println("every non-benign fault was detected — 100% coverage for landed SEUs (§5.6)")
	} else {
		fmt.Println("WARNING: a non-benign fault escaped detection")
	}
}
