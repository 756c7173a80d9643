package stats

import (
	"fmt"

	"parallaft/internal/asm"
	"parallaft/internal/core"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
)

// Table2Result demonstrates the detection-guarantee comparison of table 2:
// Parallaft's periodic state comparison detects every error, including ones
// that never reach a syscall; RAFT, which compares only at syscalls, lets
// such errors escape silently (§3.4, footnote 3).
type Table2Result struct {
	// Silent-error scenario: a register is corrupted in the checker after
	// the last data-carrying syscall; the corruption never influences any
	// syscall argument.
	ParallaftDetectsSilent bool // expected true (register compare at segment end)
	RAFTDetectsSilent      bool // expected false (no syscall ever differs)

	// Syscall-visible scenario: the corruption changes the bytes passed to
	// a write; both runtimes compare syscall inputs.
	ParallaftDetectsSyscall bool
	RAFTDetectsSyscall      bool

	// Detection latency: the segment index where Parallaft flagged the
	// silent error; bounded by construction (§3.4).
	ParallaftSilentSegment int
}

// table2Program: compute, write a message, then a long post-syscall compute
// tail whose registers never reach another syscall (exit code is
// re-materialised as an immediate).
func table2Program() *asm.Program {
	b := asm.NewBuilder("table2")
	b.Ascii("msg", "checkpointed\n")
	b.Space("buf", 32*1024)
	b.MovI(1, 0)
	b.MovI(8, 12345)
	// phase 1: some work
	b.MovI(2, 0)
	b.MovI(3, 120_000)
	b.Addr(4, "buf")
	b.Label("work1")
	b.AndI(5, 2, 4095)
	b.ShlI(5, 5, 3)
	b.AndI(5, 5, 32760)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "work1")
	// the only externally visible output
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "msg")
	b.MovI(3, 13)
	b.Syscall()
	// phase 2: a long silent tail using x8 (the injection target)
	b.Label("postwrite")
	b.MovI(2, 0)
	b.MovI(3, 400_000)
	b.Label("work2")
	b.Add(8, 8, 2)
	b.MulI(8, 8, 3)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "work2")
	// exit with a constant: the corrupted x8 never reaches a syscall
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 7)
	b.Syscall()
	return b.MustBuild()
}

// RunTable2 executes the two scenarios under both runtimes; the four
// (scenario, runtime) cells are independent simulations and fan out over
// Runner.Parallel workers.
func (r *Runner) RunTable2() (*Table2Result, error) {
	prog := table2Program()
	postwrite := prog.Labels["postwrite"]
	res := &Table2Result{ParallaftSilentSegment: -1}

	// silentHook flips a bit in x8 once the checker is past the write.
	silentHook := func() func(int, int, *proc.Process, float64) {
		done := false
		return func(_, rep int, c *proc.Process, _ float64) {
			if done || rep != 0 || c.PC < postwrite {
				return
			}
			c.FlipRegisterBit(proc.GPRClass, 8, 0, 17)
			done = true
		}
	}
	// syscallHook corrupts the message buffer before the checker's write.
	syscallHook := func() func(int, int, *proc.Process, float64) {
		done := false
		return func(_, rep int, c *proc.Process, _ float64) {
			if done || rep != 0 {
				return
			}
			addr := prog.Symbols["msg"]
			v, f := c.AS.LoadByte(addr)
			if f != nil {
				return
			}
			if _, f := c.AS.StoreByte(addr, v^0x20); f != nil {
				return
			}
			done = true
		}
	}

	type scenario struct {
		hook     func() func(int, int, *proc.Process, float64)
		raftMode bool
	}
	scenarios := []scenario{
		{silentHook, false},
		{silentHook, true},
		{syscallHook, false},
		{syscallHook, true},
	}
	type verdict struct {
		detected bool
		segment  int
	}
	results, err := fanOut(r, "table2", len(scenarios), func(i int) (verdict, error) {
		sc := scenarios[i]
		mode := ModeParallaft
		if sc.raftMode {
			mode = ModeRAFT
		}
		cfg := r.RuntimeConfig(mode)
		cfg.ReplicaHook = sc.hook()
		e := r.NewEngine()
		rt := core.NewRuntime(e, cfg)
		stats, err := rt.Run(prog)
		if err != nil {
			return verdict{}, err
		}
		v := verdict{detected: stats.Detected != nil, segment: -1}
		if stats.Detected != nil {
			v.segment = stats.Detected.Segment
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	res.ParallaftDetectsSilent = results[0].detected
	if results[0].detected {
		res.ParallaftSilentSegment = results[0].segment
	}
	res.RAFTDetectsSilent = results[1].detected
	res.ParallaftDetectsSyscall = results[2].detected
	res.RAFTDetectsSyscall = results[3].detected
	return res, nil
}

// FormatTable2 renders the guarantee comparison.
func FormatTable2(res *Table2Result) string {
	yn := func(b bool) string {
		if b {
			return "detected"
		}
		return "MISSED"
	}
	t := &Table{Header: []string{"scenario", "parallaft", "raft"}}
	t.AddRow("error after last syscall (silent)", yn(res.ParallaftDetectsSilent), yn(res.RAFTDetectsSilent))
	t.AddRow("error reaching a syscall's data", yn(res.ParallaftDetectsSyscall), yn(res.RAFTDetectsSyscall))
	note := fmt.Sprintf("Parallaft flagged the silent error at segment %d (latency bounded by slice period x live segments, §3.4).\n", res.ParallaftSilentSegment)
	return "Table 2: guaranteed error detection (paper: Parallaft yes, RAFT no)\n" + t.String() + note
}
