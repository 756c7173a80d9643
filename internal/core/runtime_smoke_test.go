package core

import (
	"strings"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/sim"
)

// newTestEngine builds a fresh machine/kernel/engine stack for one run.
func newTestEngine(seed int64) *sim.Engine {
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, seed)
	l := oskernel.NewLoader(k, m.PageSize, seed)
	return sim.New(m, k, l)
}

// testProgram builds a program that loops long enough to produce several
// segments under a small slicing period, makes syscalls, touches memory,
// and reads nondeterministic state.
func testProgram(iters int64) *asm.Program {
	b := asm.NewBuilder("smoke")
	b.Space("buf", 64*1024)
	b.Bytes("msg", []byte("hello\n"))

	b.Label("start")
	b.MovI(1, 0)     // acc
	b.MovI(2, 0)     // i
	b.MovI(3, iters) // limit
	b.Addr(4, "buf") // base
	b.Label("loop")
	b.AndI(5, 2, 8191) // offset within buf (8 KiB window), 8-byte steps
	b.ShlI(5, 5, 3)
	b.AndI(5, 5, 65528)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")

	// A nondeterministic read the runtime must virtualise.
	b.Rdtsc(7)
	// getpid (non-effectful, replayed).
	b.MovI(0, int64(oskernel.SysGetPID))
	b.Syscall()
	// write (globally effectful: must appear exactly once).
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "msg")
	b.MovI(3, 6)
	b.Syscall()
	// exit with acc's low byte
	b.AndI(1, 1, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

func runProtected(t *testing.T, cfg Config, iters int64) *RunStats {
	t.Helper()
	e := newTestEngine(7)
	r := NewRuntime(e, cfg)
	stats, err := r.Run(testProgram(iters))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats
}

func TestParallaftCleanRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000 // force multiple segments
	stats := runProtected(t, cfg, 40_000)

	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if stats.Slices < 2 {
		t.Errorf("slices = %d, want >= 2 (program should span several segments)", stats.Slices)
	}
	if got := string(stats.Stdout); got != "hello\n" {
		t.Errorf("stdout = %q, want exactly one %q (duplicated IO means replay leaked)", got, "hello\n")
	}
	if stats.AllWallNs < stats.MainWallNs {
		t.Errorf("all wall %.0f < main wall %.0f", stats.AllWallNs, stats.MainWallNs)
	}
	if stats.SyscallsTraced != 3 {
		t.Errorf("syscalls traced = %d, want 3", stats.SyscallsTraced)
	}
	if stats.NondetTraced != 1 {
		t.Errorf("nondet traced = %d, want 1", stats.NondetTraced)
	}
	if stats.DirtyPagesHashed == 0 {
		t.Error("no dirty pages were hashed")
	}
}

func TestParallaftMatchesBaselineOutput(t *testing.T) {
	// Baseline run for comparison.
	be := newTestEngine(7)
	bres, err := be.RunBaseline(testProgram(20_000), be.M.BigCores()[0])
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 30_000
	stats := runProtected(t, cfg, 20_000)

	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if stats.ExitCode != bres.ExitCode {
		t.Errorf("exit code %d != baseline %d", stats.ExitCode, bres.ExitCode)
	}
	if string(stats.Stdout) != string(bres.Stdout) {
		t.Errorf("stdout %q != baseline %q", stats.Stdout, bres.Stdout)
	}
	if stats.MainWallNs <= bres.WallNs {
		t.Errorf("protected main wall %.0f should exceed baseline wall %.0f (tracing overhead)",
			stats.MainWallNs, bres.WallNs)
	}
}

// TestIntelSlicesByInstructions: the slicing unit is the machine's. On an
// instruction-sliced machine DefaultConfig's period counts retired
// instructions, with no config flag: every segment but the last retires the
// period, overshot by less than one main dispatch quantum. (Sliced by
// cycles, this machine cuts the same program at 16 384 instructions.)
func TestIntelSlicesByInstructions(t *testing.T) {
	m := machine.New(machine.IntelLike())
	k := oskernel.NewKernel(m.PageSize, 7)
	l := oskernel.NewLoader(k, m.PageSize, 7)
	const period = 40_000
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = period
	var pkts []*packet.CheckPacket
	cfg.Export = &packet.Exporter{Store: pagestore.New(PageHashSeed), Sink: func(p *packet.CheckPacket) error {
		pkts = append(pkts, p)
		return nil
	}}
	st, err := NewRuntime(sim.New(m, k, l), cfg).Run(testProgram(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if st.Detected != nil || len(pkts) < 3 {
		t.Fatalf("detected %v, %d segments; want a clean run of at least 3", st.Detected, len(pkts))
	}
	for _, p := range pkts[:len(pkts)-1] {
		if p.MainInstrs < period || p.MainInstrs >= period+sim.DefaultQuantum {
			t.Errorf("segment %d retired %d instructions, want [%d, %d)", p.Segment, p.MainInstrs, period, period+sim.DefaultQuantum)
		}
	}
}

func TestRAFTCleanRun(t *testing.T) {
	stats := runProtected(t, RAFTConfig(), 20_000)
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if stats.Slices != 0 {
		t.Errorf("RAFT mode sliced %d times, want 0", stats.Slices)
	}
	if got := string(stats.Stdout); got != "hello\n" {
		t.Errorf("stdout = %q, want %q", got, "hello\n")
	}
	if stats.DirtyPagesHashed != 0 {
		t.Errorf("RAFT mode hashed %d pages, want 0 (no state comparison)", stats.DirtyPagesHashed)
	}
	if stats.CheckerLittleNs != 0 {
		t.Errorf("RAFT checker ran %f ns on little cores, want 0", stats.CheckerLittleNs)
	}
}

func TestStatsString(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	stats := runProtected(t, cfg, 10_000)
	if !strings.Contains(stats.Benchmark, "smoke") {
		t.Errorf("benchmark name = %q", stats.Benchmark)
	}
}
