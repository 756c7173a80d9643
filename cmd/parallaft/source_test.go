package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// TestAssemblyFile: an assembly file prints its assembly under -S and runs
// under -mode baseline, and a missing file or an unknown workload is a usage
// error.
func TestAssemblyFile(t *testing.T) {
	dir := t.TempDir()
	pasm := filepath.Join(dir, "hello.pasm")
	if err := os.WriteFile(pasm, []byte(hello), 0o644); err != nil {
		t.Fatal(err)
	}
	checkRuns(t, []runCase{
		{[]string{"-S", pasm}, 0, "movi x2, 65536"},
		{[]string{"-mode", "baseline", pasm}, 0, "exit_code:              7\nhi\n"},
		{[]string{filepath.Join(dir, "missing.pasm")}, 2, "no such file"},
		{[]string{"-S", "-workload", "no-such-benchmark"}, 2, "unknown workload"},
	})
}

// TestSourceFile: a paftlang source (testdata/sum.pl) prints its assembly
// under -S and runs in every mode, a clean run detects nothing, and a missing
// file or a source that does not compile is a usage error.
func TestSourceFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.pl")
	if err := os.WriteFile(bad, []byte("var n = ;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const sum = "testdata/sum.pl"
	checkRuns(t, []runCase{
		{[]string{"-S", sum}, 0, "syscall"},
		{[]string{"-mode", "baseline", sum}, 0, "exit_code:              44\nsum 499500"},
		{[]string{sum}, 0, "exit_code:                       44\nsum 499500"},
		{[]string{"-mode", "raft", sum}, 0, "exit_code:                       44\nsum 499500"},
		{[]string{filepath.Join(dir, "missing.pl")}, 2, "no such file"},
		{[]string{"-S", bad}, 2, bad + ":1:9: expected an expression"},
	})
}

type runCase struct {
	args []string
	code int
	want string
}

// checkRuns runs each case, checks its exit code and that its output contains
// want, and fails any run that detects an error.
func checkRuns(t *testing.T, cases []runCase) {
	t.Helper()
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
		}
		got := stdout.String() + stderr.String()
		if !strings.Contains(got, tc.want) {
			t.Errorf("%v: output %q, want it to contain %q", tc.args, got, tc.want)
		}
		if strings.Contains(got, "DETECTED") {
			t.Errorf("%v: a clean run detected an error:\n%s", tc.args, got)
		}
	}
}

// TestDisassemblyGolden pins -S byte for byte: on the paftlang source, its
// compiled assembly; on 429.mcf, whose 13.6 MB listing is mostly its
// initialised arena, the SHA-256 of the listing. Both goldens were taken
// from the assembler and compiler front ends' own disassembly commands
// before -S replaced them.
func TestDisassemblyGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
		digest bool
	}{
		{[]string{"-S", "testdata/sum.pl"}, "sum_golden.S", false},
		{[]string{"-S", "-workload", "429.mcf"}, "disasm_429.mcf.sha256", true},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", tc.args, code, stderr.String())
		}
		got := stdout.Bytes()
		if tc.digest {
			got = fmt.Appendf(nil, "%x\n", sha256.Sum256(got))
		}
		checkGolden(t, tc.golden, got)
	}
}
