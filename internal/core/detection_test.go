package core

import (
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/mem"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
)

// loopProgram is a multi-segment compute+memory program used as the
// substrate for detection-scenario tests.
func loopProgram(iters int64) *asm.Program {
	b := asm.NewBuilder("victim")
	b.Space("buf", 32*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, iters)
	b.Addr(4, "buf")
	b.Label("loop")
	b.AndI(5, 2, 4095)
	b.ShlI(5, 5, 3)
	b.AndI(5, 5, 32760)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.AndI(1, 1, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

// runWithHook runs the program under Parallaft with a hook on replica 0 —
// the single-fault model: under NMR the fault lands in exactly one replica.
func runWithHook(t *testing.T, cfg Config, prog *asm.Program, hook func(int, *proc.Process, float64)) *RunStats {
	t.Helper()
	cfg.ReplicaHook = func(seg, rep int, c *proc.Process, elapsedNs float64) {
		if rep == 0 {
			hook(seg, c, elapsedNs)
		}
	}
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats
}

// onceInSegment builds a hook firing exactly once, in the given segment.
func onceInSegment(segment int, f func(*proc.Process)) func(int, *proc.Process, float64) {
	done := false
	return func(seg int, c *proc.Process, _ float64) {
		if done || seg != segment {
			return
		}
		f(c)
		done = true
	}
}

func smallSliceConfig() Config {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 150_000
	return cfg
}

func TestDetectsRegisterCorruption(t *testing.T) {
	stats := runWithHook(t, smallSliceConfig(), loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.FlipRegisterBit(proc.GPRClass, 1, 0, 40) // checksum register
		}))
	if stats.Detected == nil {
		t.Fatal("register corruption undetected")
	}
	if stats.Detected.Segment != 1 {
		t.Errorf("detected at segment %d, want 1 (bounded latency)", stats.Detected.Segment)
	}
}

func TestDetectsMemoryCorruption(t *testing.T) {
	prog := loopProgram(120_000)
	bufAddr := prog.Symbols["buf"]
	stats := runWithHook(t, smallSliceConfig(), prog,
		onceInSegment(1, func(c *proc.Process) {
			v, _ := c.AS.LoadU64(bufAddr + 512)
			c.AS.StoreU64(bufAddr+512, v^4) //nolint:errcheck
		}))
	if stats.Detected == nil {
		t.Fatal("memory corruption undetected")
	}
	switch stats.Detected.Kind {
	case ErrMemMismatch, ErrRegMismatch:
		// The flipped word feeds the checksum register, so either the page
		// hash or the register compare may fire first — both are §4.4
		// detections.
	default:
		t.Errorf("unexpected detection kind %v", stats.Detected.Kind)
	}
}

func TestDetectsCheckerOnlyPageWriteBothTrackingModes(t *testing.T) {
	// A corrupted checker writes a page the main never touches: the dirty
	// set is the union of both sides (§4.4), so both tracking mechanisms
	// must catch it as a memory mismatch — the value never reaches any
	// register the program reads.
	build := func() *asm.Program {
		b := asm.NewBuilder("victim-wide")
		b.Space("buf", 64*1024)
		b.MovI(1, 0)
		b.MovI(2, 0)
		b.MovI(3, 120_000)
		b.Addr(4, "buf")
		b.Label("loop")
		b.AndI(5, 2, 2047) // touches only the first 16 KiB
		b.ShlI(5, 5, 3)
		b.Add(5, 4, 5)
		b.Ld(6, 5, 0)
		b.Add(6, 6, 2)
		b.St(5, 0, 6)
		b.Add(1, 1, 6)
		b.AddI(2, 2, 1)
		b.Blt(2, 3, "loop")
		b.MovI(0, int64(oskernel.SysExit))
		b.MovI(1, 0)
		b.Syscall()
		return b.MustBuild()
	}
	for _, tracking := range []DirtyTracking{TrackFrameDiff, TrackSoftDirty} {
		prog := build()
		cfg := smallSliceConfig()
		cfg.Tracking = tracking
		stats := runWithHook(t, cfg, prog,
			onceInSegment(1, func(c *proc.Process) {
				addr := prog.Symbols["buf"] + 48*1024 // far outside the loop's window
				c.AS.StoreU64(addr, 0xbad)            //nolint:errcheck
			}))
		if stats.Detected == nil {
			t.Errorf("tracking %v: checker-only page write undetected", tracking)
		} else if stats.Detected.Kind != ErrMemMismatch {
			t.Errorf("tracking %v: kind = %v, want memory mismatch", tracking, stats.Detected.Kind)
		}
	}
}

func TestDetectsControlFlowTimeout(t *testing.T) {
	// A victim with a short inner loop: corrupting the live inner counter
	// in the checker sends it into a near-infinite spin, so it either
	// never reaches the target PC (instruction-budget timeout, §4.2.2) or
	// blows past the target branch count (overrun).
	b := asm.NewBuilder("timeout-victim")
	b.Space("buf", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 8_000)
	b.Addr(4, "buf")
	b.Label("outer")
	b.MovI(7, 12)
	b.Label("inner")
	b.AddI(7, 7, -1)
	b.Bne(7, 0, "inner")
	b.AndI(5, 2, 2047)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "outer")
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	prog := b.MustBuild()

	stats := runWithHook(t, smallSliceConfig(), prog,
		onceInSegment(1, func(c *proc.Process) {
			c.Regs.X[7] = 1 << 40 // spin in the inner loop ~forever
		}))
	if stats.Detected == nil {
		t.Fatal("checker livelock undetected")
	}
	if !stats.Detected.IsTimeout() && stats.Detected.Kind != ErrExecPointOverrun {
		t.Errorf("kind = %v, want timeout or overrun", stats.Detected.Kind)
	}
}

func TestRewoundCheckerStillDetected(t *testing.T) {
	// Rewinding the induction variable makes the checker redo work; the
	// divergence is caught one way or another (position overrun, timeout,
	// or a state mismatch at the boundary) — never silently tolerated.
	stats := runWithHook(t, smallSliceConfig(), loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.Regs.X[2] = 0
		}))
	if stats.Detected == nil {
		t.Fatal("rewound checker undetected")
	}
}

func TestDetectsCheckerException(t *testing.T) {
	prog := loopProgram(120_000)
	stats := runWithHook(t, smallSliceConfig(), prog,
		onceInSegment(1, func(c *proc.Process) {
			c.Regs.X[4] = 0xdead_0000 // wild base pointer -> SIGSEGV in checker
		}))
	if stats.Detected == nil {
		t.Fatal("checker exception undetected")
	}
	if !stats.Detected.IsException() {
		t.Errorf("kind = %v, want checker-exception", stats.Detected.Kind)
	}
	if stats.Detected.Sig != proc.SIGSEGV {
		t.Errorf("signal = %v, want SIGSEGV", stats.Detected.Sig)
	}
}

func TestDetectsSyscallDataMismatch(t *testing.T) {
	// Corrupt the bytes a write() will send: the checker's syscall input
	// differs from the record (§4.3.1).
	b := asm.NewBuilder("syscall-victim")
	b.Ascii("msg", "payload-payload-payload-")
	b.Space("buf", 16*1024)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 120_000)
	b.Addr(4, "buf")
	b.Label("loop")
	b.AndI(5, 2, 2047)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.St(5, 0, 2)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "msg")
	b.MovI(3, 24)
	b.Syscall()
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	prog := b.MustBuild()

	msg := prog.Symbols["msg"]
	fired := false
	stats := runWithHook(t, smallSliceConfig(), prog, func(seg int, c *proc.Process, _ float64) {
		if fired {
			return
		}
		v, _ := c.AS.LoadByte(msg)
		c.AS.StoreByte(msg, v^0xff) //nolint:errcheck
		fired = true
	})
	if stats.Detected == nil {
		t.Fatal("syscall data corruption undetected")
	}
	// Depending on where the boundary falls, the corruption is caught at a
	// segment-end page hash or at the write itself; both are valid.
	if stats.Detected.Kind != ErrSyscallMismatch && stats.Detected.Kind != ErrMemMismatch {
		t.Errorf("kind = %v", stats.Detected.Kind)
	}
}

func TestBenignFaultNotFlagged(t *testing.T) {
	// Flip a register the program never reads: dead state, must be benign
	// only if it is dead at comparison time too. x11 is never used by
	// loopProgram but registers are compared at segment end, so flipping
	// it MUST be detected. A truly benign flip is one that is overwritten
	// before the segment ends: flip x5 (rewritten at the top of every loop
	// iteration) well before the boundary.
	stats := runWithHook(t, smallSliceConfig(), loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.Regs.X[5] ^= 1 << 60 // scratch: recomputed from x2 next iteration
		}))
	// x5 is recomputed from x2 at the top of every iteration; whether the
	// flip manifests depends on where it lands within the iteration. The
	// invariant: either it is detected, or the program completes with the
	// correct result (never an undetected wrong result).
	if stats.Detected != nil {
		t.Logf("flip manifested and was detected: %v", stats.Detected)
	} else if stats.KilledBy != proc.SigNone {
		t.Errorf("benign run killed by %v", stats.KilledBy)
	}
}

func TestDeadRegisterCorruptionIsCaughtAtSegmentEnd(t *testing.T) {
	// Even a register the program never uses is architectural state;
	// Parallaft's register comparison flags it (unlike RAFT).
	stats := runWithHook(t, smallSliceConfig(), loopProgram(120_000),
		onceInSegment(1, func(c *proc.Process) {
			c.Regs.X[11] ^= 1
		}))
	if stats.Detected == nil {
		t.Fatal("dead-register corruption undetected (register compare must be total)")
	}
	if stats.Detected.Kind != ErrRegMismatch {
		t.Errorf("kind = %v, want register mismatch", stats.Detected.Kind)
	}
}

func TestRAFTMissesPostSyscallCorruption(t *testing.T) {
	cfg := RAFTConfig()
	stats := runWithHook(t, cfg, loopProgram(120_000),
		onceInSegment(0, func(c *proc.Process) {
			c.Regs.X[11] ^= 1 // dead register, never reaches a syscall
		}))
	if stats.Detected != nil {
		t.Errorf("RAFT detected a syscall-invisible error: %v (its design cannot)", stats.Detected)
	}
}

func TestNoSkidBufferCausesOverrun(t *testing.T) {
	// The §4.2.2 ablation: arming the counter at the exact target lets
	// skid push the checker past the end point.
	cfg := smallSliceConfig()
	cfg.SkidBuffer = 0
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(120_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected == nil {
		t.Skip("skid happened to be zero on every overflow; nothing to assert")
	}
	if stats.Detected.Kind != ErrExecPointOverrun {
		t.Errorf("kind = %v, want exec-point overrun", stats.Detected.Kind)
	}
}

func TestMaxLiveSegmentsStallsMain(t *testing.T) {
	cfg := smallSliceConfig()
	cfg.MaxLiveSegments = 1
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(150_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if stats.MainStallNs <= 0 {
		t.Error("main never stalled despite MaxLiveSegments=1")
	}
}

func TestFullMemoryCompareAblation(t *testing.T) {
	cfg := smallSliceConfig()
	cfg.CompareFullMemory = true
	e := newTestEngine(13)
	rt := NewRuntime(e, cfg)
	stats, err := rt.Run(loopProgram(80_000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	// full comparison hashes far more pages than dirty tracking
	cfg2 := smallSliceConfig()
	e2 := newTestEngine(13)
	rt2 := NewRuntime(e2, cfg2)
	stats2, err := rt2.Run(loopProgram(80_000))
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyPagesHashed <= stats2.DirtyPagesHashed {
		t.Errorf("full compare hashed %d pages <= dirty tracking's %d",
			stats.DirtyPagesHashed, stats2.DirtyPagesHashed)
	}
}

func TestPostForkCorruptionCaughtThroughHashCache(t *testing.T) {
	// Full-memory comparison maximises reuse inside the comparison
	// subsystem: untouched pages are identity-skipped, and only pages in
	// two different frames are read. A post-fork corruption of a page that
	// earlier comparisons already settled must still be caught — the write
	// gives the checker its own frame, so no shortcut can mask it.
	prog := loopProgram(120_000)
	bufAddr := prog.Symbols["buf"]
	cfg := smallSliceConfig()
	cfg.CompareFullMemory = true
	stats := runWithHook(t, cfg, prog,
		onceInSegment(2, func(c *proc.Process) {
			v, _ := c.AS.LoadU64(bufAddr + 512)
			c.AS.StoreU64(bufAddr+512, v^8) //nolint:errcheck
		}))
	if stats.Detected == nil {
		t.Fatal("post-fork corruption undetected with memoized hashing")
	}
	switch stats.Detected.Kind {
	case ErrMemMismatch, ErrRegMismatch:
		// The flipped word also feeds the checksum register, so either
		// comparison may fire first.
	default:
		t.Errorf("unexpected detection kind %v", stats.Detected.Kind)
	}
	if stats.IdentitySkips == 0 {
		t.Error("identity fast path never taken; the cache machinery was not exercised")
	}
}

func TestCheckerOnlyMappingDetectedStructurally(t *testing.T) {
	// A corrupted checker maps a region the main never had. Both the
	// default dirty-union path and the full-memory ablation (whose
	// candidate set enumerates BOTH sides' mappings) must flag it as a
	// structural mismatch.
	for _, full := range []bool{false, true} {
		cfg := smallSliceConfig()
		cfg.CompareFullMemory = full
		prog := loopProgram(120_000)
		stats := runWithHook(t, cfg, prog,
			onceInSegment(1, func(c *proc.Process) {
				base := c.AS.FindFree(0x4000_0000, c.AS.PageSize())
				if err := c.AS.Map(base, c.AS.PageSize(), mem.ProtRW, "rogue"); err != nil {
					t.Errorf("rogue map: %v", err)
				}
			}))
		if stats.Detected == nil {
			t.Errorf("fullmem=%v: checker-only mapping undetected", full)
			continue
		}
		if stats.Detected.Kind != ErrStructuralMismatch {
			t.Errorf("fullmem=%v: kind = %v, want structural mismatch", full, stats.Detected.Kind)
		}
	}
}
