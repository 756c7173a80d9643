// Protectapp: demonstrate error detection. A guest program computes, emits
// output via a syscall, and keeps computing. We inject a single-event upset
// (one register bit flip) into the checker and show:
//
//   - Parallaft detects it at the next segment-end comparison, even though
//     the corruption never reaches a syscall;
//   - the RAFT baseline, which compares only syscalls, misses it entirely
//     (table 2 / footnote 3 of the paper).
package main

import (
	"fmt"
	"log"

	"parallaft/internal/asm"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
	"parallaft/internal/stats"
)

func buildProgram() *asm.Program {
	b := asm.NewBuilder("protected-app")
	b.Ascii("msg", "result ready\n")
	b.Space("table", 64*1024)
	b.MovI(1, 0)
	b.MovI(8, 99991) // long-lived state: the injection target
	// phase 1: table-building work
	b.MovI(2, 0)
	b.MovI(3, 200_000)
	b.Addr(4, "table")
	b.Label("build")
	b.AndI(5, 2, 8191)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 8)
	b.St(5, 0, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "build")
	// the only output
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "msg")
	b.MovI(3, 13)
	b.Syscall()
	// phase 2: silent tail mutating x8
	b.Label("tail")
	b.MovI(2, 0)
	b.MovI(3, 300_000)
	b.Label("tick")
	b.MulI(8, 8, 6364136223846793005)
	b.AddI(8, 8, 1442695040888963407)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "tick")
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	return b.MustBuild()
}

var newStack = (&stats.Runner{MachineCfg: machine.AppleM2Like, Seed: 7}).NewEngine

// seuHook flips bit 23 of x8 in the checker once it is past the write.
func seuHook(tail uint64) func(int, int, *proc.Process, float64) {
	injected := false
	return func(_, _ int, c *proc.Process, _ float64) {
		if injected || c.PC < tail {
			return
		}
		c.FlipRegisterBit(proc.GPRClass, 8, 0, 23)
		injected = true
		fmt.Println("  [SEU injected: bit 23 of x8 flipped in the checker]")
	}
}

func main() {
	prog := buildProgram()
	tail := prog.Labels["tail"]

	fmt.Println("clean run under Parallaft:")
	rt := core.NewRuntime(newStack(), core.DefaultConfig())
	st, err := rt.Run(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  detected=%v, output=%q\n\n", st.Detected, st.Stdout)

	fmt.Println("faulty run under Parallaft:")
	cfg := core.DefaultConfig()
	cfg.ReplicaHook = seuHook(tail)
	rt = core.NewRuntime(newStack(), cfg)
	st, err = rt.Run(prog)
	if err != nil {
		log.Fatal(err)
	}
	if st.Detected == nil {
		log.Fatal("Parallaft missed the fault — should be impossible")
	}
	fmt.Printf("  DETECTED at segment %d: %s\n\n", st.Detected.Segment, st.Detected.Kind)

	fmt.Println("same faulty run under the RAFT baseline:")
	raftCfg := core.RAFTConfig()
	raftCfg.ReplicaHook = seuHook(tail)
	rt = core.NewRuntime(newStack(), raftCfg)
	st, err = rt.Run(prog)
	if err != nil {
		log.Fatal(err)
	}
	if st.Detected == nil {
		fmt.Println("  MISSED: the corruption never reached a syscall, and RAFT only compares syscalls")
	} else {
		fmt.Printf("  detected: %v (unexpected)\n", st.Detected)
	}
}
