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
