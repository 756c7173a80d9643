package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chromeTrace mirrors the subset of the Chrome trace-event JSON the CLI
// emits that the tests assert on.
type chromeTrace struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		PID   int            `json:"pid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func readChromeTrace(t *testing.T, path string) chromeTrace {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace-out file: %v", err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace-out is not valid Chrome trace JSON: %v", err)
	}
	return tr
}

// stagesAndActors projects a trace into the set of stage names ("X" events)
// and actor names ("M" process_name metadata) it contains.
func stagesAndActors(tr chromeTrace) (map[string]int, map[string]bool) {
	stages := map[string]int{}
	actors := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		switch ev.Phase {
		case "X":
			stages[ev.Name]++
		case "M":
			if ev.Name == "process_name" {
				if n, ok := ev.Args["name"].(string); ok {
					actors[n] = true
				}
			}
		}
	}
	return stages, actors
}

// TestTraceFlagValidation: the tracing flags observe a checking pipeline,
// so asking for them in baseline mode is a usage error.
func TestTraceFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-mode", "baseline", "-trace-out", "x.json", "-workload", "stress.getpid"},
		{"-mode", "baseline", "-flight-dir", "x", "-workload", "stress.getpid"},
		{"-mode", "baseline", "-trace", "x.jsonl", "-workload", "stress.getpid"},
		{"-mode", "baseline", "-spans", "x.jsonl", "-workload", "stress.getpid"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr %q)", args, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "require a checking mode") {
			t.Errorf("%v: stderr = %q", args, stderr.String())
		}
	}
}

// TestTraceOutLocalRun: without a farm (or packet export) the causal chain
// stops at seal — the trace holds seal spans on the "main" track and
// nothing else.
func TestTraceOutLocalRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "stress.getpid", "-scale", "0.05",
		"-trace-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	stages, actors := stagesAndActors(readChromeTrace(t, out))
	if stages["seal"] == 0 {
		t.Errorf("no seal spans in trace: %v", stages)
	}
	if stages["export"] != 0 || stages["dispatch"] != 0 || stages["remote-verify"] != 0 {
		t.Errorf("exporter/farm stages present without an exporter: %v", stages)
	}
	if !actors["main"] || len(actors) != 1 {
		t.Errorf("actors = %v, want exactly {main}", actors)
	}
	if !strings.Contains(stderr.String(), "stage spans written") {
		t.Errorf("stderr missing trace-out summary: %q", stderr.String())
	}
}

// TestTraceOutFarmRun drives -farm with -trace-out and checks the merged
// timeline: every sealed segment's chain runs seal through delivery, with
// main, the farm dispatcher, and each node on their own tracks — including
// the remote-verify spans shipped back in the nodes' verdict frames.
func TestTraceOutFarmRun(t *testing.T) {
	a, b := startFarmNode(t), startFarmNode(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "458.sjeng", "-scale", "0.05",
		"-farm", a + "," + b, "-trace-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	tr := readChromeTrace(t, out)
	stages, actors := stagesAndActors(tr)
	n := stages["seal"]
	if n == 0 {
		t.Fatalf("no seal spans in trace: %v", stages)
	}
	for _, st := range []string{"export", "dispatch", "upload", "remote-verify", "verdict-remap", "delivery"} {
		if stages[st] != n {
			t.Errorf("stage %s has %d spans, want %d (one per sealed segment): %v",
				st, stages[st], n, stages)
		}
	}
	for _, actor := range []string{"main", "farm", "node0", "node1"} {
		if !actors[actor] {
			t.Errorf("actor %s missing from trace: %v", actor, actors)
		}
	}
	// Every complete event carries the deterministic trace ID of its
	// segment's chain, so chains can be followed across tracks.
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "X" && ev.Args["trace"] == nil {
			t.Fatalf("span %q has no trace id: %v", ev.Name, ev.Args)
		}
	}
}

// TestMultiProgramRunKeepsEveryProgram: 403.gcc runs nine inputs, one
// program each. The recorders are per invocation and written once, so every
// program's decisions, lifecycle spans and seal spans reach the files — each
// program's run used to overwrite the previous one's.
func TestMultiProgramRunKeepsEveryProgram(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	spansPath := filepath.Join(dir, "s.jsonl")
	chromePath := filepath.Join(dir, "c.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "403.gcc", "-scale", "0.05",
		"-trace", tracePath, "-spans", spansPath, "-trace-out", chromePath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if n := strings.Count(stderr.String(), "trace: "); n != 1 {
		t.Errorf("trace file written %d times, want once:\n%s", n, stderr.String())
	}

	progs := map[string]bool{}
	seals := 0
	for _, ev := range readChromeTrace(t, chromePath).TraceEvents {
		if ev.Phase == "X" && ev.Name == "seal" {
			seals++
			progs[ev.Args["prog"].(string)] = true
		}
	}
	if len(progs) != 9 {
		t.Errorf("seal spans cover %d programs, want all 9: %v", len(progs), progs)
	}
	decisions, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	starts := strings.Count(string(decisions), `"kind":"segment-start"`)
	lifecycles := strings.Count(string(spans), "\n")
	if starts != seals || lifecycles != seals {
		t.Errorf("segment starts %d, lifecycle spans %d, seal spans %d: want one of each per segment of every program",
			starts, lifecycles, seals)
	}
}

// TestMultiProgramRejectsPerRunOutputs: the profile and the metric windows
// follow one program's simulated clock, so asking for them on a multi-input
// workload is a usage error rather than a file holding only the last program.
func TestMultiProgramRejectsPerRunOutputs(t *testing.T) {
	dir := t.TempDir()
	for _, flag := range []string{"-profile-out", "-profile-folded", "-metric-windows"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "403.gcc", "-scale", "0.05", flag, filepath.Join(dir, "out")}
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", flag, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "follow one program") {
			t.Errorf("%s: stderr = %q", flag, stderr.String())
		}
	}
}

// TestFlightDirNoAnomaly: a clean run with -flight-dir arms the recorder
// but dumps nothing — the black box only writes on anomalies.
func TestFlightDirNoAnomaly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flight")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "stress.getpid", "-scale", "0.05",
		"-flight-dir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("flight dir was not created: %v", err)
	}
	if len(ents) != 0 {
		t.Errorf("clean run wrote flight dumps: %v", ents)
	}
}
