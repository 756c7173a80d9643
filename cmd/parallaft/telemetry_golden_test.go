package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of diffing")

// TestTelemetryGolden pins the telemetry snapshot for one fixed workload
// byte for byte. Telemetry is observation-only and fed exclusively from
// simulated state on this path, so the snapshot must be as deterministic
// as the simulation itself — any drift here means instrumentation leaked
// host-side nondeterminism (or the cost model moved, which the other
// goldens would also catch).
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/parallaft -run TestTelemetryGolden -update
func TestTelemetryGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// 429.mcf at this scale spans several segments, so the segment,
	// comparison and scheduler instruments all carry nonzero values.
	code := run([]string{"-workload", "429.mcf", "-scale", "0.05", "-stats-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var obj struct {
		Telemetry    json.RawMessage `json:"telemetry"`
		TraceDropped *uint64         `json:"trace_dropped"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil {
		t.Fatalf("stats-json is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(obj.Telemetry) == 0 {
		t.Fatal("stats-json carries no telemetry snapshot")
	}
	if obj.TraceDropped == nil {
		t.Fatal("stats-json carries no trace_dropped counter")
	}

	var pretty bytes.Buffer
	if err := json.Indent(&pretty, obj.Telemetry, "", "  "); err != nil {
		t.Fatalf("telemetry snapshot is not valid JSON: %v", err)
	}
	pretty.WriteByte('\n')

	checkGolden(t, "telemetry_golden.json", pretty.Bytes())
}
