package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const hello = `
.ascii banner "hi\n"
start:
	movi x0, 2
	movi x1, 1
	movi x2, =banner
	movi x3, 3
	syscall
	movi x0, 1
	movi x1, 7
	syscall
.entry start
`

// TestSmoke: a program assembles, -run prints its output and the exit line,
// and a missing file is a usage error.
func TestSmoke(t *testing.T) {
	src := filepath.Join(t.TempDir(), "hello.pasm")
	if err := os.WriteFile(src, []byte(hello), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{src}, 0, "8 instructions, 8 data bytes, 0 BSS bytes, entry 0 — OK"},
		{[]string{"-d", src}, 0, "movi x2, 65536"},
		{[]string{"-run", src}, 0, "hi\n[exit 7; 7 instructions, 0 branches,"},
		{[]string{filepath.Join(t.TempDir(), "missing.pasm")}, 2, "no such file"},
		{[]string{"-workload", "no-such-benchmark"}, 2, "unknown workload"},
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
