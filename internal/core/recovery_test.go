package core

import (
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

func recoveryConfig() Config {
	cfg := smallSliceConfig()
	cfg.EnableRecovery = true
	return cfg
}

// TestRecoveryAbsorbsCheckerFault: a transient fault in a checker is
// arbitrated (referee reproduces the end checkpoint), absorbed without
// rollback, and the program completes with correct output.
func TestRecoveryAbsorbsCheckerFault(t *testing.T) {
	prog := loopProgram(120_000)
	be := newTestEngine(13)
	base, err := be.RunBaseline(prog, be.M.BigCores()[0])
	if err != nil {
		t.Fatal(err)
	}

	stats := runWithHook(t, recoveryConfig(), prog,
		onceInSegment(1, func(c *proc.Process) {
			c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
		}))
	if stats.Detected != nil {
		t.Fatalf("fault not absorbed: %v", stats.Detected)
	}
	if stats.RecoveredCheckerFaults != 1 {
		t.Errorf("recovered checker faults = %d, want 1", stats.RecoveredCheckerFaults)
	}
	if stats.Rollbacks != 0 {
		t.Errorf("rollbacks = %d, want 0 (fault was in the checker)", stats.Rollbacks)
	}
	if stats.Arbitrations != 1 {
		t.Errorf("arbitrations = %d, want 1", stats.Arbitrations)
	}
	if stats.ExitCode != base.ExitCode {
		t.Errorf("exit code %d != baseline %d after recovery", stats.ExitCode, base.ExitCode)
	}
}

// TestRecoveryRollsBackMainFault: a transient fault in the *main* is
// attributed by arbitration (the clean referee cannot reproduce the end
// checkpoint) and rolled back; re-execution produces the correct result.
func TestRecoveryRollsBackMainFault(t *testing.T) {
	prog := loopProgram(120_000)
	be := newTestEngine(13)
	base, err := be.RunBaseline(prog, be.M.BigCores()[0])
	if err != nil {
		t.Fatal(err)
	}

	cfg := recoveryConfig()
	fired := false
	cfg.MainHook = func(m *proc.Process, nowNs float64) {
		// corrupt the main's checksum register once, mid-run
		if fired || m.Instrs < 200_000 {
			return
		}
		m.FlipRegisterBit(proc.GPRClass, 1, 0, 33)
		fired = true
	}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Skip("main finished before the injection point")
	}
	if stats.Detected != nil {
		t.Fatalf("main fault not recovered: %v", stats.Detected)
	}
	if stats.Rollbacks == 0 {
		t.Error("main fault produced no rollback")
	}
	if stats.ExitCode != base.ExitCode {
		t.Errorf("exit code %d != baseline %d after rollback (the whole point of recovery)",
			stats.ExitCode, base.ExitCode)
	}
	if string(stats.Stdout) != string(base.Stdout) {
		t.Errorf("output differs after rollback")
	}
}

// TestRecoveryPermanentFaultTerminates: a fault injected on *every* main
// dispatch exhausts the retry budget and terminates with a diagnosis
// instead of looping forever.
func TestRecoveryPermanentFaultTerminates(t *testing.T) {
	cfg := recoveryConfig()
	cfg.MainHook = func(m *proc.Process, _ float64) {
		if m.Instrs > 100_000 {
			m.Regs.X[1] ^= 1 << 7 // keeps corrupting after every restore
		}
	}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(120_000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected == nil {
		t.Fatal("permanent fault ended without a detection")
	}
	if !stats.UnrecoverableFault {
		t.Error("permanent fault not marked unrecoverable")
	}
	if stats.Rollbacks == 0 {
		t.Error("no rollback was even attempted")
	}
}

// TestRecoveryMidReplayCheckerFault: a checker fault that manifests as a
// replay divergence (exception) rather than a compare mismatch is also
// arbitrated and absorbed.
func TestRecoveryMidReplayCheckerFault(t *testing.T) {
	stats := runWithHook(t, recoveryConfig(), loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.Regs.X[4] = 0xdead_0000 // wild pointer -> checker SIGSEGV
		}))
	if stats.Detected != nil {
		t.Fatalf("checker exception not absorbed: %v", stats.Detected)
	}
	if stats.RecoveredCheckerFaults != 1 {
		t.Errorf("recovered = %d, want 1", stats.RecoveredCheckerFaults)
	}
}

// bracketProgram writes "A\n", runs a checksum loop of iters iterations,
// writes "Z\n", runs a second loop (label "tail") of tail iterations, and
// exits with the checksum's low byte.
func bracketProgram(iters, tail int64) *asm.Program {
	b := asm.NewBuilder("bracket")
	b.Bytes("a", []byte("A\n"))
	b.Bytes("z", []byte("Z\n"))
	b.Space("buf", 32*1024)
	write := func(msg string) {
		b.MovI(0, int64(oskernel.SysWrite))
		b.MovI(1, 1)
		b.Addr(2, msg)
		b.MovI(3, 2)
		b.Syscall()
	}
	loop := func(label string, iters int64) {
		b.MovI(2, 0)
		b.MovI(3, iters)
		b.Addr(4, "buf")
		b.Label(label)
		b.AndI(5, 2, 4095)
		b.ShlI(5, 5, 3)
		b.Add(5, 4, 5)
		b.Ld(6, 5, 0)
		b.Add(6, 6, 2)
		b.St(5, 0, 6)
		b.Add(7, 7, 6)
		b.AddI(2, 2, 1)
		b.Blt(2, 3, label)
	}
	b.MovI(7, 0)
	write("a")
	loop("body", iters)
	write("z")
	loop("tail", tail)
	b.AndI(1, 7, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

// runBracketWithMainFault runs bracketProgram under recovery, flipping a
// low bit of the main's checksum register once fire reports true; it
// returns the run's stats beside the fault-free baseline's.
func runBracketWithMainFault(t *testing.T, prog *asm.Program, fire func(m *proc.Process) bool) (*RunStats, *sim.BaselineResult) {
	t.Helper()
	base := baselineOf(t, prog, 13)
	cfg := recoveryConfig()
	fired := false
	cfg.MainHook = func(m *proc.Process, _ float64) {
		if !fired && fire(m) {
			m.FlipRegisterBit(proc.GPRClass, 7, 0, 3)
			fired = true
		}
	}
	stats, err := NewRuntime(newTestEngine(13), cfg).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("the main finished before the injection point")
	}
	if stats.Detected != nil {
		t.Fatalf("main fault not recovered: %v", stats.Detected)
	}
	if stats.ExitCode != base.ExitCode {
		t.Errorf("exit code %d != baseline %d after rollback", stats.ExitCode, base.ExitCode)
	}
	return stats, base
}

// TestRollbackKeepsEarlierOutput: a rollback restores the main from a
// checkpoint taken after the program's first write; the restored main
// keeps that write's output instead of starting from an empty stdout.
func TestRollbackKeepsEarlierOutput(t *testing.T) {
	stats, base := runBracketWithMainFault(t, bracketProgram(200_000, 1_000),
		func(m *proc.Process) bool { return m.Instrs >= 1_500_000 })
	if stats.Rollbacks != 1 || stats.ReexecutedEffects != 0 {
		t.Fatalf("rollbacks=%d reexecuted-effects=%d, want 1/0", stats.Rollbacks, stats.ReexecutedEffects)
	}
	if string(stats.Stdout) != string(base.Stdout) {
		t.Errorf("stdout after rollback = %q, want the baseline's %q", stats.Stdout, base.Stdout)
	}
}

// TestRecoveryCountsReexecutedEffects: a fault landing in the main right
// after a write, inside the write's segment, rolls the write back. The
// write escapes a second time on re-execution (the §3.4 caveat): the stat
// counts it, and stdout shows the pre-rollback output followed by the
// re-executed write.
func TestRecoveryCountsReexecutedEffects(t *testing.T) {
	prog := bracketProgram(60_000, 100_000)
	tail := prog.Labels["tail"]
	stats, base := runBracketWithMainFault(t, prog,
		func(m *proc.Process) bool { return m.PC >= tail })
	if stats.Rollbacks == 0 || stats.ReexecutedEffects < 1 {
		t.Fatalf("rollbacks=%d reexecuted-effects=%d, want a rollback across the write",
			stats.Rollbacks, stats.ReexecutedEffects)
	}
	if want := string(base.Stdout) + "Z\n"; string(stats.Stdout) != want {
		t.Errorf("stdout = %q, want %q (pre-rollback output, then the re-executed write)", stats.Stdout, want)
	}
}

// TestRecoveryDisabledStillDetects: with recovery off, behaviour is the
// paper's: terminate-and-report.
func TestRecoveryDisabledStillDetects(t *testing.T) {
	stats := runWithHook(t, smallSliceConfig(), loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
		}))
	if stats.Detected == nil {
		t.Fatal("detection lost")
	}
	if stats.RecoveredCheckerFaults != 0 || stats.Rollbacks != 0 {
		t.Error("recovery ran while disabled")
	}
}
