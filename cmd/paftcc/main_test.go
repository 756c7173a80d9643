package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sum = `
var n = 0;
var s = 0;
while (n < 1000) { s = s + n; n = n + 1; }
print("sum ");
printnum(s);
exit(s & 255);
`

// TestSmoke: a program compiles, -run prints its output and the exit line in
// every mode, and a missing file or an unknown mode is a usage error.
func TestSmoke(t *testing.T) {
	src := filepath.Join(t.TempDir(), "sum.pl")
	if err := os.WriteFile(src, []byte(sum), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{src}, 0, "sum.pl: 70 instructions, 48 data bytes — OK"},
		{[]string{"-S", src}, 0, "syscall"},
		{[]string{"-run", src}, 0, "sum 499500\n[exit 44; "},
		{[]string{"-run", "-mode", "parallaft", src}, 0, "sum 499500\n[exit 44; 0 segments; detected=<nil>]"},
		{[]string{"-run", "-mode", "raft", src}, 0, "sum 499500\n[exit 44; 0 segments; detected=<nil>]"},
		{[]string{filepath.Join(t.TempDir(), "missing.pl")}, 2, "no such file"},
		{[]string{"-mode", "bogus", src}, 2, "unknown mode"},
		{nil, 2, "expected exactly one source file"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
		}
		if got := stdout.String() + stderr.String(); !strings.Contains(got, tc.want) {
			t.Errorf("%v: output %q, want it to contain %q", tc.args, got, tc.want)
		}
	}
}
