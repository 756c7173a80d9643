package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wallNs matches the one host-clock member of a lifecycle span.
var wallNs = regexp.MustCompile(`,"wall_ns":\d+`)

// TestDecisionTraceGolden pins, byte for byte, the decision stream (-trace)
// and the segment-lifecycle spans (-spans) of one fixed main+3 run. The run
// emits six decision kinds (segment start and seal, syscall, queue, migrate,
// vote). Both files are driven by the simulated clock alone; the spans' host
// wall time is their only nondeterministic member and is stripped.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/parallaft -run TestDecisionTraceGolden -update
func TestDecisionTraceGolden(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	spansPath := filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "458.sjeng", "-scale", "0.05", "-checkers", "3",
		"-trace", tracePath, "-spans", spansPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	decisions, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "decision_trace_golden.jsonl", decisions)
	checkGolden(t, "spans_golden.jsonl", wallNs.ReplaceAll(spans, nil))
}

// checkGolden compares got with testdata/<name>, or rewrites it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
