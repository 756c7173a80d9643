package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo pins the exit-code convention every command shares:
// a bad flag or flag combination is a usage error (exit 2), reported before
// a machine is built or any simulation starts.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "bogus", "-workload", "stress.getpid"}, "unknown mode"},
		{[]string{"-machine", "bogus", "-workload", "stress.getpid"}, "unknown machine"},
		{nil, "expected exactly one assembly file"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-diversity", "skid4x", "-mode", "raft", "-workload", "stress.getpid"}, "requires -mode parallaft"},
		{[]string{"-checkers", "3", "-mode", "baseline", "-workload", "stress.getpid"}, "requires -mode parallaft"},
		{[]string{"-mode", "baseline", "-export-packets", "x", "-workload", "stress.getpid"}, "requires a checking mode"},
		{[]string{"-mode", "baseline", "-ledger", "-workload", "stress.getpid"}, "requires a checking mode"},
		{[]string{"-mode", "baseline", "-profile-out", "x", "-metric-windows", "y", "-workload", "stress.getpid"}, "-metric-windows -profile-out requires"},
		{[]string{"-metrics-addr", "no-port", "-workload", "stress.getpid"}, "-metrics-addr"},
		// Numeric values that would be remapped to a default or run a
		// degenerate guest; zero keeps its documented meaning where it has one.
		{[]string{"-scale", "0", "-workload", "429.mcf"}, "-scale must be a positive workload scale"},
		{[]string{"-scale", "-1", "-workload", "429.mcf"}, "-scale must be a positive workload scale"},
		{[]string{"-period", "-1", "-workload", "stress.getpid"}, "-period must be zero or a positive"},
		{[]string{"-profile-period", "-1", "-workload", "stress.getpid"}, "-profile-period must be zero or a positive"},
		{[]string{"-window-interval-ms", "0", "-workload", "stress.getpid"}, "-window-interval-ms must be a positive"},
		{[]string{"-window-interval-ms", "-1", "-workload", "stress.getpid"}, "-window-interval-ms must be a positive"},
		{[]string{"-trace-limit", "-1", "-workload", "stress.getpid"}, "-trace-limit must be zero or a positive"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr %q)", tc.args, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want it to mention %q", tc.args, stderr.String(), tc.want)
		}
	}
}
