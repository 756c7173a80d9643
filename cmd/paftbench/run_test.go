package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// usageError asserts that run(args) is a usage error (exit 2) whose stderr
// mentions want.
func usageError(t *testing.T, args []string, want string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Errorf("%v: exit code %d, want 2 (stderr %q)", args, code, stderr.String())
		return
	}
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("%v: stderr = %q, want it to mention %q", args, stderr.String(), want)
	}
}

// passesFlagChecks asserts that a good value of a validated flag gets past
// its check: the run then stops at the unknown experiment, still before any
// simulation.
func passesFlagChecks(t *testing.T, args ...string) {
	t.Helper()
	usageError(t, append(args, "-experiment", "fig99"), "unknown experiment")
}

// TestUsageErrorsExitTwo pins the CLI exit-code convention shared with the
// parallaft binary: bad flags are usage errors (exit 2), not run failures. A
// scale or trial count of zero or less is one too, not a figure of nonsense
// or a silent default.
func TestUsageErrorsExitTwo(t *testing.T) {
	usageError(t, []string{"-no-such-flag"}, "flag provided but not defined")
	usageError(t, []string{"-experiment", "fig99"}, "unknown experiment")
	for _, tc := range []struct{ flag, value, want string }{
		{"-scale", "0", "-scale must be a positive workload scale"},
		{"-scale", "-2", "-scale must be a positive workload scale"},
		{"-trials", "0", "-trials must be a positive trial count"},
		{"-trials", "-5", "-trials must be a positive trial count"},
	} {
		usageError(t, []string{"-experiment", "fig5", "-workloads", "403.gcc", tc.flag, tc.value}, tc.want)
	}
	passesFlagChecks(t, "-scale", "0.05", "-trials", "1")
}

func TestValidateParallel(t *testing.T) {
	for _, n := range []string{"1", "2", "64"} {
		passesFlagChecks(t, "-parallel", n)
	}
	for _, n := range []string{"0", "-1", "-8"} {
		usageError(t, []string{"-parallel", n}, "-parallel must be a positive worker count")
	}
}

func TestValidateCheckers(t *testing.T) {
	for _, n := range []string{"1", "3", "7"} {
		passesFlagChecks(t, "-checkers", n)
	}
	for _, n := range []string{"0", "-1"} {
		usageError(t, []string{"-checkers", n}, "-checkers must be a positive replica count")
	}
}

// TestDiversityFlagParsing pins the -diversity flag's split+validate path:
// known preset lists pass, unknown names are rejected with a clear error.
func TestDiversityFlagParsing(t *testing.T) {
	for _, s := range []string{"", "none", "none,skid4x,bigcore", "quantum,coldcache"} {
		passesFlagChecks(t, "-diversity", s)
	}
	for _, s := range []string{"warp-core", "none,warp-core"} {
		usageError(t, []string{"-diversity", s}, "unknown diversity preset")
	}
}

// TestUnknownExperimentFails: a bad -experiment value is caught before any
// simulation starts and exits 2 with the list of known names.
func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestSpansAcrossSuite runs the smallest real experiment with -spans and
// checks the JSONL output aggregates segment-lifecycle spans from every
// session of the campaign.
func TestSpansAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (scaled-down) suite session")
	}
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-experiment", "fig5", "-workloads", "403.gcc",
		"-scale", "0.1", "-parallel", "2", "-spans", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Fig. 5") && !strings.Contains(stdout.String(), "fig5") &&
		stdout.Len() == 0 {
		t.Errorf("experiment wrote nothing to stdout")
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("spans file: %v", err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var span struct {
			Segment int     `json:"segment"`
			Outcome string  `json:"outcome"`
			EndNs   float64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("line %d is not a span: %v\n%s", n+1, err, sc.Text())
		}
		if span.Outcome == "" {
			t.Fatalf("line %d has no outcome: %s", n+1, sc.Text())
		}
		n++
	}
	if n == 0 {
		t.Fatal("no spans written")
	}
	if !strings.Contains(stderr.String(), "segment spans written") {
		t.Errorf("stderr missing the spans summary: %q", stderr.String())
	}
}

// TestIntelHonoursSharedFlags: the §5.8 experiment runs the same runner as
// every other one on the Intel preset, so -spans (like -checkers, -diversity
// and -flight-dir) reaches its sessions.
func TestIntelHonoursSharedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (scaled-down) suite session")
	}
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-experiment", "intel", "-workloads", "458.sjeng",
		"-scale", "0.05", "-parallel", "1", "-spans", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n == 0 {
		t.Errorf("intel wrote no spans; stderr:\n%s", stderr.String())
	}
}
