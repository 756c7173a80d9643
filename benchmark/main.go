// Command benchmark measures how fast the host runs this repository's
// simulation and check path: five workloads, end-to-end metrics with
// tracing off, per-layer probes, and a traced rep per workload. It claims
// nothing about the paper's simulated results — those are goldens, and the
// benchmark only checks they stay put. See README.md.
//
//	benchmark -seed 12345                          every workload, probes, traced runs, tables
//	benchmark -workload dirty_sweep -trace 0       one workload, end-to-end metrics
//	benchmark -workload dirty_sweep -trace 1       one workload, traced rep + per-layer metrics
//	benchmark -selfcheck                           two interleaved sets of runs against the bounds
//	benchmark -update                              re-pin the simulated digests at the default seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

const defaultSeed = 12345

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: all of them, each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "seed for the simulated machine's nondeterminism (ASLR, PMU skid)")
	seconds := flag.Int("seconds", 16, "how long one run measures timed reps")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced rep and per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of runs per workload and hold them to the bounds")
	update := flag.Bool("update", false, "re-pin the simulated digests under testdata/ (default seed only)")
	flag.Parse()

	var err error
	switch {
	case *update:
		err = updateDigests(*seed)
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	case *workloadName == "":
		err = runAll(*seed, *seconds)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one mode, one JSON line last.
func runOne(name string, seed int64, seconds int, traced bool) error {
	d := findDef(name)
	if d == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res result
	if traced {
		t, err := runTraced(d, seed, float64(seconds))
		if err != nil {
			return err
		}
		res = t.result()
	} else {
		m, err := runUntraced(d, seed, float64(seconds))
		if err != nil {
			return err
		}
		m.checkDigest(seed)
		e2e := m.endToEnd()
		m.report(e2e)
		res = result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
			Metrics: metricValues(endToEndMetrics, e2e)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func metricValues(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	return out
}
