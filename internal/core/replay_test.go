package core

import (
	"strings"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/isa"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

// run executes a program under Parallaft and asserts no infrastructure
// error and, unless allowDetect, no detection.
func runClean(t *testing.T, cfg Config, prog *asm.Program, seed int64) *RunStats {
	t.Helper()
	e := newTestEngine(seed)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	return stats
}

// baselineOf runs the same program unprotected for output comparison.
func baselineOf(t *testing.T, prog *asm.Program, seed int64) *sim.BaselineResult {
	t.Helper()
	e := newTestEngine(seed)
	res, err := e.RunBaseline(prog, e.M.BigCores()[0])
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return res
}

func TestGlobalSyscallEffectsHappenExactlyOnce(t *testing.T) {
	b := asm.NewBuilder("io")
	b.Ascii("m1", "one|")
	b.Ascii("m2", "two|")
	b.Space("work", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 60_000)
	b.Addr(4, "work")
	b.Label("l1")
	b.AndI(5, 2, 2047)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "l1")
	// write #1
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "m1")
	b.MovI(3, 4)
	b.Syscall()
	// more work, then write #2 (lands in a later segment)
	b.MovI(2, 0)
	b.MovI(3, 60_000)
	b.Label("l2")
	b.AndI(5, 2, 2047)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "l2")
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "m2")
	b.MovI(3, 4)
	b.Syscall()
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 100_000
	stats := runClean(t, cfg, prog, 5)
	if got := string(stats.Stdout); got != "one|two|" {
		t.Errorf("stdout = %q, want exactly %q (duplicated IO means replay leaked to the OS)", got, "one|two|")
	}
	if stats.Slices < 2 {
		t.Errorf("expected multiple segments, got %d slices", stats.Slices)
	}
}

func TestNondetInstructionsVirtualised(t *testing.T) {
	// The checker runs on a little core whose real MIDR differs from the
	// big core's; without record/replay the register compare would fail.
	b := asm.NewBuilder("nondet")
	b.Space("work", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 50_000)
	b.Addr(4, "work")
	b.Label("loop")
	b.AndI(5, 2, 1023)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Mrs(7, isa.SysRegMIDR)   // core identity: differs between big/little
	b.Rdtsc(8)                 // timestamp: differs between any two runs
	b.Mrs(9, isa.SysRegCNTVCT) // counter: likewise
	// keep them live so the segment-end compare sees them
	b.Add(1, 7, 8)
	b.Add(1, 1, 9)
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 80_000
	stats := runClean(t, cfg, prog, 6)
	if stats.NondetTraced != 3 {
		t.Errorf("nondet events traced = %d, want 3", stats.NondetTraced)
	}
}

func TestNonEffectfulSyscallsReplayMainValues(t *testing.T) {
	// getpid differs between main and checker processes; gettime and
	// getrandom differ between any two executions. All are recorded from
	// the main and replayed, so the state comparison passes.
	b := asm.NewBuilder("noneff")
	b.Space("rbuf", 64)
	b.Space("work", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 50_000)
	b.Addr(4, "work")
	b.Label("loop")
	b.AndI(5, 2, 1023)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(0, int64(oskernel.SysGetPID))
	b.Syscall()
	b.Mov(10, 0)
	b.MovI(0, int64(oskernel.SysGetTime))
	b.Syscall()
	b.Add(10, 10, 0)
	b.MovI(0, int64(oskernel.SysGetRandom))
	b.Addr(1, "rbuf")
	b.MovI(2, 32)
	b.Syscall()
	b.Addr(1, "rbuf")
	b.Ld(11, 1, 0) // random bytes land in compared state
	b.Add(10, 10, 11)
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 80_000
	stats := runClean(t, cfg, prog, 16)
	if stats.SyscallsTraced != 4 {
		t.Errorf("syscalls traced = %d, want 4", stats.SyscallsTraced)
	}
}

func TestASLRPinnedAcrossReplay(t *testing.T) {
	// Without MAP_FIXED pinning, the checker's anonymous mmap would land
	// at a different random address and every subsequent access would
	// diverge (§4.3.2).
	b := asm.NewBuilder("aslr")
	b.Space("work", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 40_000)
	b.Addr(4, "work")
	b.Label("loop")
	b.AndI(5, 2, 1023)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(0, int64(oskernel.SysMmap))
	b.MovI(1, 0)
	b.MovI(2, 32*1024)
	b.MovI(3, 3)
	b.MovI(4, int64(oskernel.MapAnonymous))
	b.Syscall()
	b.Mov(10, 0)   // the ASLR'd address becomes architectural state
	b.St(10, 0, 2) // and the mapping is used
	b.Ld(11, 10, 0)
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 60_000
	runClean(t, cfg, prog, 21)
}

func TestFileBackedMmapSplitsSegment(t *testing.T) {
	b := asm.NewBuilder("filemap")
	b.Ascii("path", "/input/sjeng.book")
	b.Space("work", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 40_000)
	b.Addr(4, "work")
	b.Label("loop")
	b.AndI(5, 2, 1023)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(0, int64(oskernel.SysOpen))
	b.Addr(1, "path")
	b.MovI(2, 0)
	b.Syscall()
	b.Mov(10, 0)
	b.MovI(0, int64(oskernel.SysMmap))
	b.MovI(1, 0)
	b.MovI(2, 16*1024)
	b.MovI(3, 3)
	b.MovI(4, 0) // file-backed
	b.Mov(5, 10)
	b.Syscall()
	b.Mov(10, 0)
	b.Ld(11, 10, 0) // use the mapping: reaches the compared state
	b.Add(1, 1, 11)
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 60_000
	stats := runClean(t, cfg, prog, 30)
	// the split takes extra checkpoints beyond the periodic slices
	if stats.Checkpoints <= stats.Slices+1 {
		t.Errorf("checkpoints %d vs slices %d: file-mmap split did not add checkpoints",
			stats.Checkpoints, stats.Slices)
	}
}

func TestInternalFatalSignalReplay(t *testing.T) {
	// The main faults (SIGSEGV) deterministically; the checker must
	// reproduce the identical fault and the final states must match.
	b := asm.NewBuilder("crash")
	b.Space("work", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 50_000)
	b.Addr(4, "work")
	b.Label("loop")
	b.AndI(5, 2, 1023)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(6, 0x6000_0000)
	b.Ld(7, 6, 0) // fault
	b.Halt()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 80_000
	stats := runClean(t, cfg, prog, 31)
	if stats.KilledBy != proc.SIGSEGV {
		t.Errorf("main killed by %v, want SIGSEGV", stats.KilledBy)
	}
	if stats.SignalsTraced == 0 {
		t.Error("the fault was not traced")
	}
}

func TestInternalHandledSignalReplay(t *testing.T) {
	// kill(self, SIGUSR1) with a handler: deterministic given the syscall
	// position, executed on both sides (§4.3.3 internal signals).
	b := asm.NewBuilder("selfsig")
	b.Space("work", 16*1024)
	b.Jmp("setup")
	b.Label("handler")
	b.AddI(9, 9, 1)
	b.Jr(proc.HandlerLinkReg)
	b.Label("setup")
	b.MovI(9, 0)
	b.MovI(0, int64(oskernel.SysSigaction))
	b.MovI(1, int64(proc.SIGUSR1))
	b.LabelAddr(2, "handler")
	b.Syscall()
	b.MovI(2, 0)
	b.MovI(3, 30_000)
	b.Addr(4, "work")
	b.Label("loop")
	b.AndI(5, 2, 1023)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.AndI(6, 2, 8191)
	b.Bne(6, 0, "skip")
	b.Mov(8, 2) // save the loop counter across the syscall clobber
	b.MovI(0, int64(oskernel.SysKill))
	b.MovI(1, 0)
	b.MovI(2, int64(proc.SIGUSR1))
	b.Syscall()
	b.Mov(2, 8)
	b.Label("skip")
	b.Blt(2, 3, "loop")
	b.Mov(1, 9) // handler count into the exit code
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 60_000
	base := baselineOf(t, prog, 32)
	stats := runClean(t, cfg, prog, 32)
	if stats.ExitCode != base.ExitCode || stats.ExitCode == 0 {
		t.Errorf("exit code %d != baseline %d (handler invocations)", stats.ExitCode, base.ExitCode)
	}
}

func TestExternalSignalDeliveredAtExecPoint(t *testing.T) {
	// An async SIGUSR1 from "outside": Parallaft records the main's
	// execution point and steers the checker to the same point before
	// delivering (§4.3.3).
	b := asm.NewBuilder("extsig")
	b.Space("work", 16*1024)
	b.Jmp("setup")
	b.Label("handler")
	b.AddI(9, 9, 1)
	b.Jr(proc.HandlerLinkReg)
	b.Label("setup")
	b.MovI(9, 0)
	b.MovI(0, int64(oskernel.SysSigaction))
	b.MovI(1, int64(proc.SIGUSR1))
	b.LabelAddr(2, "handler")
	b.Syscall()
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 80_000)
	b.Addr(4, "work")
	b.Label("loop")
	b.AndI(5, 2, 1023)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Add(1, 1, 9)
	b.AndI(1, 1, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 80_000
	e := newTestEngine(33)
	rt := NewRuntime(e, cfg)

	// Inject the signal once the main is some way in: hook into the
	// checker path is not available for main-side timing, so use the
	// public API between construction and Run via a goroutine-free trick:
	// wrap Run by injecting from a ReplicaHook the first time any checker
	// runs (the main is mid-execution by construction then).
	injected := false
	cfg2 := cfg
	cfg2.ReplicaHook = func(int, int, *proc.Process, float64) {
		if !injected {
			injected = true
			rt.InjectExternalSignal(proc.SIGUSR1)
		}
	}
	rt = NewRuntime(e, cfg2)
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !injected {
		t.Skip("no checker ran before main finished; nothing injected")
	}
	if stats.Detected != nil {
		t.Fatalf("external signal replay diverged: %v", stats.Detected)
	}
	if stats.SignalsTraced == 0 {
		t.Error("external signal not traced")
	}
}

func TestProtectedRunMatchesBaselineAcrossSeeds(t *testing.T) {
	// Integration property: for several seeds (different ASLR, skid and
	// noise), the protected run's visible behaviour equals the baseline's.
	prog := testProgram(30_000)
	for seed := int64(1); seed <= 5; seed++ {
		be := newTestEngine(seed)
		base, err := be.RunBaseline(prog, be.M.BigCores()[0])
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.SlicePeriodCycles = 70_000
		e := newTestEngine(seed)
		rt := NewRuntime(e, cfg)
		stats, err := rt.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Detected != nil {
			t.Errorf("seed %d: false positive: %v", seed, stats.Detected)
		}
		if stats.ExitCode != base.ExitCode || string(stats.Stdout) != string(base.Stdout) {
			t.Errorf("seed %d: protected output diverged", seed)
		}
	}
}

func TestDeterministicStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 70_000
	run := func() *RunStats {
		e := newTestEngine(77)
		rt := NewRuntime(e, cfg)
		st, err := rt.Run(testProgram(25_000))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.AllWallNs != b.AllWallNs || a.Slices != b.Slices || a.EnergyJ != b.EnergyJ ||
		a.COWCopies != b.COWCopies || a.DirtyPagesHashed != b.DirtyPagesHashed {
		t.Errorf("simulation nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestBreakdownComponentsAreFinite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 70_000
	stats := runClean(t, cfg, testProgram(30_000), 9)
	if stats.MainWallNs < stats.MainUserNs+stats.MainSysNs {
		t.Errorf("main wall %.0f below user+sys %.0f",
			stats.MainWallNs, stats.MainUserNs+stats.MainSysNs)
	}
	// runtime work + stall is exactly the wall not covered by user/sys
	gap := stats.MainWallNs - stats.MainUserNs - stats.MainSysNs
	if diff := gap - stats.RuntimeNs - stats.MainStallNs; diff > 1 || diff < -1 {
		t.Errorf("unaccounted main wall time: %.1f ns", diff)
	}
}

func TestCheckpointHygieneNoLeaks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 60_000
	e := newTestEngine(41)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(testProgram(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	// every segment retired
	if len(rt.segments) != 0 {
		t.Errorf("%d live segments after completion", len(rt.segments))
	}
	for _, seg := range rt.segments {
		t.Errorf("leaked segment %d", seg.Index)
	}
}

func TestErrorStringsAreInformative(t *testing.T) {
	d := &DetectedError{Kind: ErrMemMismatch, Segment: 3, Detail: "page 0x12 differs"}
	s := d.Error()
	for _, frag := range []string{"segment 3", "memory-hash-mismatch", "page 0x12"} {
		if !strings.Contains(s, frag) {
			t.Errorf("error %q missing %q", s, frag)
		}
	}
}
