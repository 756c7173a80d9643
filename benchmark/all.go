package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// child runs one workload in a process of its own, so that its peak RSS is
// its own, echoes what the child printed for a reader, and returns the
// result line.
func child(name string, seed int64, seconds, trace int, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	if echo && cut >= 0 {
		fmt.Println(text[:cut])
	}
	var res result
	if err := json.Unmarshal([]byte(text[cut+1:]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// runAll is the whole benchmark: for every workload an untraced run and a
// traced run, then the summary tables.
func runAll(seed int64, seconds int) error {
	e2e := map[string]*result{}
	layers := map[string][]float64{} // each probe metric, one value per traced run
	overhead := map[string]float64{} // trace_overhead_ratio is per workload
	failed := 0
	for i := range defs {
		d := &defs[i]
		fmt.Printf("=== %s: %s\n", d.name, d.why)
		res, err := child(d.name, seed, seconds, 0, true)
		if err != nil {
			return err
		}
		e2e[d.name] = res
		failed += res.Failed
		traced, err := child(d.name, seed, seconds, 1, true)
		if err != nil {
			return err
		}
		failed += traced.Failed
		for name, v := range traced.Metrics {
			layers[name] = append(layers[name], v.Value)
		}
		overhead[d.name] = traced.Metrics["trace_overhead_ratio"].Value
		fmt.Println()
	}

	fmt.Printf("=== end-to-end, tracing off, seed %d (* = the metric the workload is here for)\n", seed)
	fmt.Printf("%-24s %-10s", "metric", "unit")
	for _, d := range defs {
		fmt.Printf(" %16s", d.name)
	}
	fmt.Println()
	for _, em := range endToEndMetrics {
		fmt.Printf("%-24s %-10s", em.Name, em.Unit)
		for _, d := range defs {
			mark := " "
			if d.owns(em.Name) {
				mark = "*"
			}
			fmt.Printf(" %15.4f%s", e2e[d.name].Metrics[em.Name].Value, mark)
		}
		fmt.Println()
	}
	fmt.Printf("%-24s %-10s", "error_rate", "failed/att")
	for _, d := range defs {
		fmt.Printf(" %16s", fmt.Sprintf("%d/%d", e2e[d.name].Failed, e2e[d.name].Attempted))
	}
	fmt.Println()

	fmt.Println("\n=== per-layer: median over the five traced runs' probes, with their spread")
	for _, s := range perLayerMetrics {
		if s.Name == "trace_overhead_ratio" {
			continue
		}
		fmt.Printf("%-34s %14.4f %-9s spread %5.1f%%\n", s.Name, median(layers[s.Name]), s.Unit, 100*spread(layers[s.Name]))
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.4f ratio     (%s)\n", "trace_overhead_ratio", overhead[d.name], d.name)
	}
	fmt.Print(interactionNotes)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

const interactionNotes = `
how the metrics interact:
  - with nothing else contending, a faster layer saves at most its share of a rep: dispatch is
    most of suite_protect, a fifth of offload_verify and next to nothing of dirty_sweep.
  - farm_stream is the only workload with a shared queue, so freeing node CPU there can cut
    verdict_latency_p50_ms by more than the layer's share: 8 outstanding over 2 nodes makes
    latency about 4 service times.
  - delivery is in order, so one slow packet delays every verdict behind it; that is why the
    farm's p99 sits several times above its p50.
`

// selfCheckRuns is how many runs a set has: the driver's ten.
const selfCheckRuns = 10

// selfCheck is the acceptance procedure in miniature: for every workload,
// two interleaved sets of selfCheckRuns runs, run i of either set on seed+i. It
// fails when a metric's spread within a set exceeds its bound (setup_s
// excepted), or when the second set's median is worse than the first's by
// more than the bound.
func selfCheck(seed int64, seconds int) error {
	bad := 0
	for i := range defs {
		d := &defs[i]
		sets := [2]map[string][]float64{{}, {}}
		for r := 0; r < selfCheckRuns; r++ {
			for s := range sets {
				res, err := child(d.name, seed+int64(r), seconds, 0, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: incorrect result", d.name, seed+int64(r))
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Printf("%s: two sets of %d runs\n", d.name, selfCheckRuns)
		for _, em := range endToEndMetrics {
			a, b := sets[0][em.Name], sets[1][em.Name]
			worse := worseBy(em.Better, median(a), median(b))
			verdict := "ok"
			if (em.Name != "setup_s" && max(spread(a), spread(b)) > em.Bound) || !withinBound(em.Better, median(a), median(b), em.Bound) {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Printf("  %-24s median %12.4f | %12.4f %-9s spread %5.2f%% | %5.2f%%  second worse by %6.2f%%  bound %4.1f%%  %s\n",
				em.Name, median(a), median(b), em.Unit, 100*spread(a), 100*spread(b), 100*worse, 100*em.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs out of bound", bad)
	}
	return nil
}
