package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// stageOrder is the canonical pipeline order used to lay out each chain's
// projection line.
var stageOrder = []string{"seal", "export", "dispatch", "upload", "remote-verify", "verdict-remap", "delivery"}

// projectTrace reduces a merged Chrome trace to its deterministic skeleton:
// wall-clock timestamps stripped, node indices collapsed to the actor class
// ("node"), one line per segment listing its trace ID and every stage (with
// its actor class and, when not 1, its span count) in pipeline order.
func projectTrace(tr chromeTrace) string {
	names := make(map[int]string)
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				names[ev.PID] = n
			}
		}
	}
	nodeRe := regexp.MustCompile(`^node\d+$`)
	type key struct {
		segment int
		stage   string
	}
	segs := make(map[int]string) // segment -> trace id
	counts := make(map[key]int)
	actors := make(map[key]string)
	for _, ev := range tr.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		seg := int(ev.Args["segment"].(float64))
		segs[seg] = ev.Args["trace"].(string)
		k := key{seg, ev.Name}
		counts[k]++
		actor := names[ev.PID]
		if nodeRe.MatchString(actor) {
			actor = "node"
		}
		actors[k] = actor
	}

	var order []int
	for seg := range segs {
		order = append(order, seg)
	}
	sort.Ints(order)
	var b strings.Builder
	for _, seg := range order {
		fmt.Fprintf(&b, "seg %d trace %s", seg, segs[seg])
		for _, st := range stageOrder {
			k := key{seg, st}
			if counts[k] == 0 {
				fmt.Fprintf(&b, " %s@MISSING", st)
				continue
			}
			fmt.Fprintf(&b, " %s@%s", st, actors[k])
			if counts[k] != 1 {
				fmt.Fprintf(&b, "x%d", counts[k])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTraceGolden pins the causal-trace skeleton of a fixed three-node farm
// campaign byte for byte. Wall-clock timing and node assignment are the
// only nondeterministic parts of a trace, and the projection strips
// exactly those, so what remains — which segments were sealed, their
// deterministic trace IDs, and one complete seal→delivery chain per
// segment with each stage on the right actor class — must never drift.
//
// Regenerate after an intentional pipeline change with:
//
//	go test ./cmd/parallaft -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	specs := []string{startFarmNode(t), startFarmNode(t), startFarmNode(t)}
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "458.sjeng", "-scale", "0.05",
		"-farm", strings.Join(specs, ","), "-trace-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	checkGolden(t, "trace_golden.txt", []byte(projectTrace(readChromeTrace(t, out))))
}
