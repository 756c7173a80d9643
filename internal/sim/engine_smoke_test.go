package sim

import (
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 42)
	l := oskernel.NewLoader(k, m.PageSize, 42)
	return New(m, k, l)
}

const sumSrc = `
; sum 1..100, store at result, print "ok\n", exit with low byte
.word result 0
.ascii msg "ok\n"
start:
	movi x1, 0        ; acc
	movi x2, 1        ; i
	movi x3, 101
loop:
	add  x1, x1, x2
	addi x2, x2, 1
	blt  x2, x3, loop
	movi x4, =result
	st   x4, 0, x1
	movi x0, 2        ; write
	movi x5, 1
	mov  x1, x5       ; fd=1
	movi x2, =msg
	movi x3, 3        ; len
	syscall
	movi x4, =result
	ld   x1, x4, 0
	andi x1, x1, 255
	movi x0, 1        ; exit
	syscall
.entry start
`

func TestBaselineSmoke(t *testing.T) {
	e := newTestEngine(t)
	prog, err := asm.Assemble("sum", sumSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, err := e.RunBaseline(prog, e.M.BigCores()[0])
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := int64(5050 & 255); res.ExitCode != want {
		t.Errorf("exit code = %d, want %d", res.ExitCode, want)
	}
	if string(res.Stdout) != "ok\n" {
		t.Errorf("stdout = %q, want %q", res.Stdout, "ok\n")
	}
	if res.Instrs == 0 || res.Branches == 0 || res.WallNs <= 0 {
		t.Errorf("counters not populated: %+v", res)
	}
	// The loop executes 100 blt branches plus the final fall-through.
	if res.Branches < 100 {
		t.Errorf("branches = %d, want >= 100", res.Branches)
	}
}

func TestBaselineDeterminism(t *testing.T) {
	prog, err := asm.Assemble("sum", sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *BaselineResult {
		e := newTestEngine(t)
		res, err := e.RunBaseline(prog, e.M.BigCores()[0])
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Instrs != b.Instrs || a.Branches != b.Branches || a.WallNs != b.WallNs {
		t.Errorf("nondeterministic baseline: %+v vs %+v", a, b)
	}
}
