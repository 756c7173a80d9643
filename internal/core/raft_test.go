package core

import (
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
)

// raftVictim loops over a buffer, then writes "out\n" and exits 9: one
// syscall whose data a checker fault can reach, and registers it never
// passes to one.
func raftVictim() *asm.Program {
	b := asm.NewBuilder("raft-victim")
	b.Ascii("msg", "out\n")
	b.Space("buf", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 60_000)
	b.Addr(4, "buf")
	b.Label("loop")
	b.AndI(5, 2, 2047)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "msg")
	b.MovI(3, 4)
	b.Syscall()
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 9)
	b.Syscall()
	return b.MustBuild()
}

func TestRAFTConfigMatchesPaperModel(t *testing.T) {
	cfg := RAFTConfig()
	if cfg.SlicePeriodCycles != 0 {
		t.Error("RAFT must not slice periodically (§5.1 modification 1)")
	}
	if !cfg.CheckersOnBig {
		t.Error("RAFT checkers run on big cores (§5.1 modification 2)")
	}
	if cfg.CompareStates {
		t.Error("RAFT performs no state comparison (§5.1 modification 3)")
	}
	if cfg.EnableDVFS || cfg.EnableMigration {
		t.Error("RAFT has no heterogeneous scheduling")
	}
}

func TestRAFTVictimCleanRun(t *testing.T) {
	st, err := NewRuntime(newTestEngine(3), RAFTConfig()).Run(raftVictim())
	if err != nil {
		t.Fatal(err)
	}
	if st.Detected != nil {
		t.Fatalf("false positive: %v", st.Detected)
	}
	if string(st.Stdout) != "out\n" {
		t.Errorf("stdout = %q (IO must happen exactly once)", st.Stdout)
	}
	if st.ExitCode != 9 {
		t.Errorf("exit = %d", st.ExitCode)
	}
	if st.Slices != 0 {
		t.Errorf("RAFT sliced %d times", st.Slices)
	}
	if st.DirtyPagesHashed != 0 {
		t.Errorf("RAFT hashed %d pages", st.DirtyPagesHashed)
	}
	if st.CheckerLittleNs != 0 {
		t.Error("RAFT checker touched a little core")
	}
}

func TestRAFTDetectsSyscallVisibleError(t *testing.T) {
	p := raftVictim()
	msg := p.Symbols["msg"]
	cfg := RAFTConfig()
	fired := false
	cfg.ReplicaHook = func(_, _ int, c *proc.Process, _ float64) {
		if fired {
			return
		}
		v, _ := c.AS.LoadByte(msg)
		c.AS.StoreByte(msg, v^1) //nolint:errcheck
		fired = true
	}
	st, err := NewRuntime(newTestEngine(3), cfg).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Detected == nil {
		t.Fatal("RAFT missed corruption of syscall data")
	}
	if st.Detected.Kind != ErrSyscallMismatch {
		t.Errorf("kind = %v, want syscall mismatch", st.Detected.Kind)
	}
}

func TestRAFTMissesSyscallInvisibleError(t *testing.T) {
	cfg := RAFTConfig()
	fired := false
	cfg.ReplicaHook = func(_, _ int, c *proc.Process, _ float64) {
		if fired {
			return
		}
		c.Regs.X[11] ^= 1 << 9 // dead register: never reaches a syscall
		fired = true
	}
	st, err := NewRuntime(newTestEngine(3), cfg).Run(raftVictim())
	if err != nil {
		t.Fatal(err)
	}
	if st.Detected != nil {
		t.Errorf("RAFT flagged a syscall-invisible error: %v — table 2 says it cannot", st.Detected)
	}
}
