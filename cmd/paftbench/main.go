// Command paftbench regenerates the paper's tables and figures on the
// simulated platforms. Each experiment prints the same rows/series the
// paper reports, with the paper's own numbers quoted for comparison.
//
// Usage:
//
//	paftbench -experiment fig5            # figures: fig5 fig6 fig7 fig8 fig9a fig9b fig9c fig10
//	paftbench -experiment fig9            # alias: all three fig9 panels at once
//	paftbench -experiment table1          # tables: table1 table2
//	paftbench -experiment nmr             # main+3 NMR voting-outcome table
//	paftbench -experiment stress          # §5.7 syscall/signal stress
//	paftbench -experiment ledger          # reconciled overhead-attribution breakdown
//	paftbench -checkers 3 -experiment fig7  # energy cost of N-way replication
//	paftbench -experiment intel           # §5.8 Intel platform
//	paftbench -experiment all             # everything
//	paftbench -workloads 429.mcf,470.lbm  # restrict the suite
//	paftbench -scale 0.25                 # shrink workloads for a quick pass
//	paftbench -parallel 8                 # campaign worker count (1 = serial)
//	paftbench -progress                   # progress/ETA lines on stderr
//
// Independent simulation runs (suite sessions, sweep points, injection
// trials) fan out over -parallel workers; results are collected in input
// order and every run derives its own seed from (seed, run identity), so
// the emitted tables are byte-identical for any -parallel value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"parallaft/internal/cli"
	"parallaft/internal/machine"
	"parallaft/internal/stats"
	"parallaft/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses argv against a fresh FlagSet,
// executes, and returns the process exit code (2 = usage error, 1 = run
// failure), matching the parallaft binary's convention.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "which experiment to run: "+experimentNames()+" all")
		workloads  = fs.String("workloads", "", "comma-separated workload subset (default: full suite)")
		scale      = fs.Float64("scale", 1.0, "workload length multiplier")
		seed       = fs.Int64("seed", 12345, "simulation seed")
		trials     = fs.Int("trials", 5, "fault-injection trials per segment (fig10)")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "campaign worker count (1 = serial; output is identical for any value)")
		progress   = fs.Bool("progress", false, "print progress/ETA lines to stderr")
		checkers   = fs.Int("checkers", 1, "checker replicas per segment for Parallaft sessions (N > 1 = NMR majority voting)")
		diversity  = fs.String("diversity", "", "comma-separated per-replica substrate presets: none skid2x skid4x quantum bigcore coldcache")
		spansFile  = fs.String("spans", "", "write one JSONL segment-lifecycle span per retired segment, across every session of the experiment, to this file")
		flightDir  = fs.String("flight-dir", "", "directory for flight-recorder dumps (written when a campaign worker panics)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	return cli.Exit(stderr, "paftbench", func() error {
		if err := errors.Join(
			cli.Positive("parallel", "worker count", float64(*parallel), false),
			cli.Positive("scale", "workload scale", *scale, false),
			cli.Positive("trials", "trial count", float64(*trials), false),
		); err != nil {
			return err
		}
		presets, err := cli.Replicas(*checkers, *diversity)
		if err != nil {
			return err
		}
		sel := selectExperiments(*experiment)
		if sel == nil {
			return cli.Usagef("unknown experiment %q (choose one of: %s all)", *experiment, experimentNames())
		}

		x := &bench{r: stats.NewRunner(), trials: *trials}
		if *workloads != "" {
			x.names = strings.Split(*workloads, ",")
		}
		x.r.Scale, x.r.Seed, x.r.Parallel = *scale, *seed, *parallel
		// Campaign progress (and the -progress lines) are backed by the
		// paft_campaign_* telemetry gauges rather than a private counter.
		x.r.Telemetry = telemetry.NewRegistry()
		if *progress {
			x.r.Progress = stderr
		}
		if x.r.Flight, err = cli.Recorder(false, telemetry.RingSize, *flightDir, x.r.Telemetry); err != nil {
			return err
		}
		spans := cli.Spans(*spansFile)
		x.r.ConfigTweak = cli.Tweak(*checkers, presets, spans, nil)

		for _, e := range sel {
			if e.suite && x.suite == nil {
				if x.suite, err = x.r.RunSuite(x.names, true); err != nil {
					return err
				}
			}
			out, err := e.run(x)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, out)
		}
		return cli.WriteSpans(*spansFile, spans, stderr)
	}())
}

// bench is what an experiment runs against: the runner, the -workloads
// subset (nil = the full suite), -trials, and the three-mode suite once an
// experiment that reads it has run it.
type bench struct {
	r      *stats.Runner
	names  []string
	trials int
	suite  *stats.SuiteResult
}

// experiment is one entry of the -experiment table. name lists every value
// that selects it; suite marks the entries that read the three-mode suite,
// which runs once, before the first of them.
type experiment struct {
	name  string
	suite bool
	run   func(x *bench) (string, error)
}

// experiments are the -experiment entries, in the order "all" runs them.
var experiments = []experiment{
	{"table1", true, func(x *bench) (string, error) { return x.suite.FormatTable1(), nil }},
	{"fig5", true, func(x *bench) (string, error) { return x.suite.FormatFig5(), nil }},
	{"fig6", true, func(x *bench) (string, error) { return x.suite.FormatFig6(), nil }},
	{"fig7", true, func(x *bench) (string, error) { return x.suite.FormatFig7(), nil }},
	{"fig8", true, func(x *bench) (string, error) { return x.suite.FormatFig8(), nil }},
	{"fig9 fig9a fig9b fig9c", false, func(x *bench) (string, error) {
		return formatted(stats.FormatFig9)(x.r.RunFig9(x.names, nil))
	}},
	{"fig10", false, func(x *bench) (string, error) {
		// Every trial re-checks only its injured segment, as the paper
		// does, on no machine; the 0.3× workloads are kept for the
		// campaign's wall time.
		return formatted(stats.FormatFig10)(x.r.RunFig10(x.names, x.trials, x.r.Scale*0.3))
	}},
	{"table2", false, func(x *bench) (string, error) {
		return formatted(stats.FormatTable2)(x.r.RunTable2())
	}},
	{"nmr", false, func(x *bench) (string, error) {
		// The Table-2 extension for NMR mode: always at three replicas
		// (RunNMR pins Checkers=3 itself), regardless of -checkers.
		return formatted(stats.FormatNMR)(x.r.RunNMR())
	}},
	{"stress", false, func(x *bench) (string, error) {
		return formatted(stats.FormatStress)(x.r.RunStress())
	}},
	{"ledger", false, func(x *bench) (string, error) {
		return formatted(stats.FormatLedger)(x.r.RunLedger(x.names))
	}},
	{"intel", false, func(x *bench) (string, error) {
		// §5.8: the same runner, every flag included, on the Intel preset.
		intel := *x.r
		intel.MachineCfg = machine.IntelLike
		return formatted((*stats.SuiteResult).FormatIntel)(intel.RunSuite(x.names, true))
	}},
}

// formatted renders an experiment's result once it has run without error.
func formatted[T any](format func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return format(v), nil
	}
}

// experimentNames lists every -experiment value but "all".
func experimentNames() string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, " ")
}

// selectExperiments returns the entries name selects, nil for an unknown
// name.
func selectExperiments(name string) []experiment {
	if name == "all" {
		return experiments
	}
	for _, e := range experiments {
		if slices.Contains(strings.Fields(e.name), name) {
			return []experiment{e}
		}
	}
	return nil
}
