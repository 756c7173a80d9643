// Quickstart: assemble a small guest program, run it unprotected, then run
// it under Parallaft and compare — same output, same exit code, plus the
// runtime's statistics.
package main

import (
	"fmt"
	"log"

	"parallaft/internal/asm"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/stats"
)

const program = `
; Sum the first million integers, print a banner, exit with the low byte.
.ascii banner "sum computed\n"
.word  result 0
start:
	movi x1, 0          ; accumulator
	movi x2, 1          ; i
	movi x3, 1000001    ; bound
loop:
	add  x1, x1, x2
	addi x2, x2, 1
	blt  x2, x3, loop
	movi x4, =result
	st   x4, 0, x1

	movi x0, 2          ; write(fd=1, banner, 13)
	movi x1, 1
	movi x2, =banner
	movi x3, 13
	syscall

	movi x4, =result
	ld   x1, x4, 0
	andi x1, x1, 255
	movi x0, 1          ; exit
	syscall
.entry start
`

// newStack builds a fresh machine + kernel + engine (one per run so energy
// and cache state never leak between runs).
var newStack = (&stats.Runner{MachineCfg: machine.AppleM2Like, Seed: 42}).NewEngine

func main() {
	prog, err := asm.Assemble("quickstart", program)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}

	// 1. Unprotected baseline.
	e := newStack()
	base, err := e.RunBaseline(prog, e.M.BigCores()[0])
	if err != nil {
		log.Fatalf("baseline: %v", err)
	}
	fmt.Printf("baseline:  exit=%d stdout=%q wall=%.3fms energy=%.3fmJ\n",
		base.ExitCode, base.Stdout, base.WallNs/1e6, base.EnergyJ*1e3)

	// 2. Under Parallaft: sliced into segments, each replayed on a little
	// core and compared against the next checkpoint.
	e = newStack()
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 400_000 // slice aggressively so the demo shows several segments
	rt := core.NewRuntime(e, cfg)
	st, err := rt.Run(prog)
	if err != nil {
		log.Fatalf("parallaft: %v", err)
	}
	fmt.Printf("parallaft: exit=%d stdout=%q wall=%.3fms energy=%.3fmJ\n",
		st.ExitCode, st.Stdout, st.AllWallNs/1e6, st.EnergyJ*1e3)
	fmt.Printf("           %d segments, %d checkpoints, %d dirty pages hashed, detected=%v\n",
		st.Slices, st.Checkpoints, st.DirtyPagesHashed, st.Detected)

	if string(st.Stdout) != string(base.Stdout) || st.ExitCode != base.ExitCode {
		log.Fatal("protected run diverged from baseline — this should never happen")
	}
	fmt.Println("\noutput matches the baseline; overhead:",
		fmt.Sprintf("%.1f%% time, %.1f%% energy",
			(st.AllWallNs/base.WallNs-1)*100, (st.EnergyJ/base.EnergyJ-1)*100))
}
