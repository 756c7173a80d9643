package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo pins the exit-code convention every command shares:
// a flag that cannot apply is a usage error (exit 2), reported before the
// daemon listens or any packet is checked, never silently ignored.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "one of -verify or -listen is required"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-verify", "x", "-flight-dir", "d"}, "-flight-dir requires -listen"},
		{[]string{"-verify", "x", "-metrics-addr", "127.0.0.1:0"}, "-metrics-addr requires -listen"},
		{[]string{"-metrics-addr", "127.0.0.1:0"}, "-metrics-addr requires -listen"},
		{[]string{"-listen", "x.sock", "-connect", "y.sock"}, "-connect requires -verify"},
		{[]string{"-connect", "y.sock"}, "-connect requires -verify"},
		{[]string{"-listen", "x.sock", "-metrics-addr", "no-port"}, "-metrics-addr"},
		{[]string{"-verify", "x", "-workers", "0"}, "-workers must be a positive worker count"},
		{[]string{"-listen", "x.sock", "-workers", "-1"}, "-workers must be a positive worker count"},
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
