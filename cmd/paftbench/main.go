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
//	paftbench -experiment farm            # distributed check-farm soak (kill + join mid-campaign)
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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"parallaft/internal/core"
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
		experiment = fs.String("experiment", "all", "which experiment to run: fig5 fig6 fig7 fig8 fig9 fig9a fig9b fig9c fig10 table1 table2 nmr stress farm ledger intel all")
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

	if err := validateParallel(*parallel); err != nil {
		fmt.Fprintln(stderr, "paftbench:", err)
		return 2
	}
	if err := validateCheckers(*checkers); err != nil {
		fmt.Fprintln(stderr, "paftbench:", err)
		return 2
	}
	presets := splitPresets(*diversity)
	if err := core.ValidateDiversity(presets); err != nil {
		fmt.Fprintln(stderr, "paftbench:", err)
		return 2
	}

	var names []string
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}

	runner := stats.NewRunner()
	runner.Scale = *scale
	runner.Seed = *seed
	runner.Parallel = *parallel
	// Campaign progress (and the -progress lines) are backed by the
	// paft_campaign_* telemetry gauges rather than a private counter.
	runner.Telemetry = telemetry.NewRegistry()
	if *progress {
		runner.Progress = stderr
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "paftbench:", err)
			return 1
		}
		runner.Flight = telemetry.NewRecorder(telemetry.RingSize)
		runner.Flight.SetDir(*flightDir)
		runner.Flight.SetMetrics(runner.Telemetry)
	}
	var spans *telemetry.SpanRecorder
	if *spansFile != "" {
		spans = telemetry.NewSpanRecorder(0)
	}
	if *checkers > 1 || len(presets) > 0 || spans != nil {
		n, d := *checkers, presets
		nmr := *checkers > 1 || len(presets) > 0
		runner.ConfigTweak = func(c *core.Config) {
			c.Spans = spans
			// RAFT sessions compare at syscalls only, so they cannot vote:
			// the NMR knobs apply to state-comparing (Parallaft) configs.
			if nmr && c.CompareStates {
				c.Checkers = n
				c.Diversity = d
			}
		}
	}

	if err := runExperiments(runner, *experiment, names, *trials, *scale, stdout); err != nil {
		fmt.Fprintln(stderr, "paftbench:", err)
		return 1
	}
	if spans != nil {
		f, err := os.Create(*spansFile)
		if err != nil {
			fmt.Fprintln(stderr, "paftbench:", err)
			return 1
		}
		defer f.Close()
		if err := spans.WriteJSONL(f); err != nil {
			fmt.Fprintln(stderr, "paftbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %d segment spans written to %s\n", spans.Len(), *spansFile)
	}
	return 0
}

// validateParallel rejects nonsensical worker counts up front. A zero or
// negative -parallel used to reach the campaign layer unchecked, where it
// was silently remapped to NumCPU — "-parallel -1" quietly saturating every
// core is the opposite of what the flag asked for. Like the
// unknown-experiment check, bad input is a clear error.
func validateParallel(n int) error {
	if n <= 0 {
		return fmt.Errorf("-parallel must be a positive worker count, got %d", n)
	}
	return nil
}

// validateCheckers rejects nonsensical replica counts the same way: zero or
// negative replicas cannot vote.
func validateCheckers(n int) error {
	if n < 1 {
		return fmt.Errorf("-checkers must be a positive replica count, got %d", n)
	}
	return nil
}

// splitPresets turns the -diversity flag value into a preset list ("" =
// none).
func splitPresets(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

var knownExperiments = []string{
	"fig5", "fig6", "fig7", "fig8", "fig9", "fig9a", "fig9b", "fig9c",
	"fig10", "table1", "table2", "nmr", "stress", "farm", "ledger", "intel", "all",
}

func runExperiments(runner *stats.Runner, experiment string, names []string, trials int, scale float64, stdout io.Writer) error {
	known := false
	for _, e := range knownExperiments {
		if experiment == e {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (choose one of: %s)", experiment, strings.Join(knownExperiments, " "))
	}

	needsSuite := map[string]bool{
		"fig5": true, "fig6": true, "fig7": true, "fig8": true,
		"table1": true, "all": true,
	}

	var suite *stats.SuiteResult
	if needsSuite[experiment] {
		var err error
		suite, err = runner.RunSuite(names, true)
		if err != nil {
			return err
		}
	}

	show := func(e string) bool { return experiment == e || experiment == "all" }

	if show("table1") {
		fmt.Fprintln(stdout, suite.FormatTable1())
	}
	if show("fig5") {
		fmt.Fprintln(stdout, suite.FormatFig5())
	}
	if show("fig6") {
		fmt.Fprintln(stdout, suite.FormatFig6())
	}
	if show("fig7") {
		fmt.Fprintln(stdout, suite.FormatFig7())
	}
	if show("fig8") {
		fmt.Fprintln(stdout, suite.FormatFig8())
	}

	if show("fig9a") || show("fig9b") || show("fig9c") || experiment == "fig9" {
		var benches []string
		if names != nil {
			benches = names
		}
		points, err := runner.RunFig9(benches, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.FormatFig9(points))
	}

	if show("fig10") {
		// Injection campaigns rerun the whole program once per trial, so
		// they use shortened workloads (the paper itself reruns only the
		// injured segment, which the simulator cannot share).
		rows, err := runner.RunFig10(names, trials, scale*0.3)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.FormatFig10(rows))
	}

	if show("table2") {
		res, err := runner.RunTable2()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.FormatTable2(res))
	}

	if show("nmr") {
		// The Table-2 extension for NMR mode: always at three replicas
		// (RunNMR pins Checkers=3 itself), regardless of -checkers.
		rows, err := runner.RunNMR()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.FormatNMR(rows))
	}

	if show("stress") {
		rows, err := runner.RunStress()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.FormatStress(rows))
	}

	if show("farm") {
		res, err := runner.RunFarm()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.FormatFarm(res))
	}

	if show("ledger") {
		rows, err := runner.RunLedger(names)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.FormatLedger(rows))
	}

	if show("intel") {
		intel := stats.NewIntelRunner()
		intel.Scale = runner.Scale
		intel.Seed = runner.Seed
		intel.Parallel = runner.Parallel
		intel.Progress = runner.Progress
		intel.Telemetry = runner.Telemetry
		sr, err := intel.RunSuite(names, true)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, sr.FormatIntel())
	}

	return nil
}
