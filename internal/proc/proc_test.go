package proc

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"parallaft/internal/asm"
	"parallaft/internal/isa"
	"parallaft/internal/machine"
	"parallaft/internal/mem"
)

const pg = 16 * 1024

// newProc builds a process around raw code with a small RW arena at 0.
func newProc(t testing.TB, code []isa.Instr) (*Process, ExecEnv) {
	t.Helper()
	m := machine.New(machine.AppleM2Like())
	as := mem.NewAddressSpace(pg)
	if err := as.Map(0, 4*pg, mem.ProtRW, "arena"); err != nil {
		t.Fatal(err)
	}
	p := New(1, 1, "test", code, as, 99)
	env := ExecEnv{Machine: m, Core: m.BigCores()[0], Contention: 1, Fabric: 1}
	return p, env
}

func run(t *testing.T, p *Process, env ExecEnv) Stop {
	t.Helper()
	return p.Run(env, 1_000_000)
}

// aluProgram exercises every integer ALU op once, then halts.
func aluProgram() []isa.Instr {
	b := asm.NewBuilder("alu")
	b.MovI(1, 100)
	b.MovI(2, 7)
	b.Add(3, 1, 2)  // 107
	b.Sub(4, 1, 2)  // 93
	b.Mul(5, 1, 2)  // 700
	b.Div(6, 1, 2)  // 14
	b.Rem(7, 1, 2)  // 2
	b.And(8, 1, 2)  // 100&7 = 4
	b.Or(9, 1, 2)   // 103
	b.Xor(10, 1, 2) // 99
	b.ShlI(11, 1, 3)
	b.ShrI(12, 1, 2)
	b.Slt(13, 2, 1) // 7 < 100 -> 1
	b.Halt()
	return b.MustBuild().Code
}

func TestALUSemantics(t *testing.T) {
	p, env := newProc(t, aluProgram())
	if s := run(t, p, env); s.Reason != StopHalt {
		t.Fatalf("stop = %v", s)
	}
	want := map[int]uint64{3: 107, 4: 93, 5: 700, 6: 14, 7: 2, 8: 4, 9: 103, 10: 99,
		11: 800, 12: 25, 13: 1}
	for r, v := range want {
		if p.Regs.X[r] != v {
			t.Errorf("x%d = %d, want %d", r, p.Regs.X[r], v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	b := asm.NewBuilder("signed")
	b.MovI(1, -20)
	b.MovI(2, 6)
	b.Div(3, 1, 2) // -3 (Go truncation)
	b.Rem(4, 1, 2) // -2
	b.Slt(5, 1, 2) // -20 < 6 -> 1
	b.SltI(6, 1, -30)
	b.Halt()
	p, env := newProc(t, b.MustBuild().Code)
	run(t, p, env)
	if int64(p.Regs.X[3]) != -3 || int64(p.Regs.X[4]) != -2 {
		t.Errorf("signed div/rem = %d, %d", int64(p.Regs.X[3]), int64(p.Regs.X[4]))
	}
	if p.Regs.X[5] != 1 || p.Regs.X[6] != 0 {
		t.Errorf("signed compares = %d, %d", p.Regs.X[5], p.Regs.X[6])
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	for _, op := range []isa.Op{isa.OpDiv, isa.OpRem} {
		code := []isa.Instr{
			{Op: isa.OpMovI, Rd: 1, Imm: 5},
			{Op: op, Rd: 2, Ra: 1, Rb: 3}, // x3 == 0
			{Op: isa.OpHalt},
		}
		p, env := newProc(t, code)
		s := run(t, p, env)
		if s.Reason != StopSignal || s.Sig != SIGFPE {
			t.Errorf("%v by zero: stop %v/%v, want signal SIGFPE", op, s.Reason, s.Sig)
		}
		if p.PC != 1 {
			t.Errorf("PC moved past the faulting instruction: %d", p.PC)
		}
	}
}

// floatProgram exercises the floating-point ops and conversions, then halts.
func floatProgram() []isa.Instr {
	b := asm.NewBuilder("fp")
	b.FMovI(0, 2.0)
	b.FMovI(1, 0.5)
	b.FAdd(2, 0, 1)
	b.FSub(3, 0, 1)
	b.FMul(4, 0, 1)
	b.FDiv(5, 0, 1)
	b.FSqrt(6, 0)
	b.FCmpLt(1, 1, 0) // 0.5 < 2.0 -> x1 = 1
	b.MovI(2, -3)
	b.CvtIF(7, 2)
	b.CvtFI(3, 7)
	b.Halt()
	return b.MustBuild().Code
}

func TestFloatSemantics(t *testing.T) {
	p, env := newProc(t, floatProgram())
	run(t, p, env)
	checks := map[int]float64{2: 2.5, 3: 1.5, 4: 1.0, 5: 4.0, 6: math.Sqrt2, 7: -3}
	for r, v := range checks {
		if p.Regs.F[r] != v {
			t.Errorf("f%d = %v, want %v", r, p.Regs.F[r], v)
		}
	}
	if p.Regs.X[1] != 1 || int64(p.Regs.X[3]) != -3 {
		t.Errorf("fcmplt/cvtfi = %d, %d", p.Regs.X[1], int64(p.Regs.X[3]))
	}
}

// vectorProgram exercises the vector ops, with a store/load round trip.
func vectorProgram() []isa.Instr {
	b := asm.NewBuilder("vec")
	b.MovI(1, 3)
	b.VSplat(0, 1)
	b.MovI(1, 5)
	b.VSplat(1, 1)
	b.VAdd(2, 0, 1)
	b.VMul(3, 0, 1)
	b.VXor(1, 0, 0)
	b.MovI(2, 64)
	b.VSt(2, 0, 2) // store v2 at addr 64
	b.VLd(0, 2, 0)
	b.Halt()
	return b.MustBuild().Code
}

func TestVectorSemantics(t *testing.T) {
	p, env := newProc(t, vectorProgram())
	run(t, p, env)
	for l := 0; l < isa.VLanes; l++ {
		if p.Regs.V[2][l] != 8 || p.Regs.V[3][l] != 15 || p.Regs.V[1][l] != 0 {
			t.Fatalf("lane %d: %v %v %v", l, p.Regs.V[2][l], p.Regs.V[3][l], p.Regs.V[1][l])
		}
		if p.Regs.V[0][l] != 8 {
			t.Fatalf("vector store/load round-trip lane %d = %d", l, p.Regs.V[0][l])
		}
	}
}

// memOpsProgram stores and loads words and bytes, merging a byte store into
// a word.
func memOpsProgram() []isa.Instr {
	b := asm.NewBuilder("memops")
	b.MovI(1, 0x11223344AABBCCDD)
	b.MovI(2, 128)
	b.St(2, 0, 1)
	b.Ld(3, 2, 0)
	b.LdB(4, 2, 0) // low byte 0xDD
	b.MovI(5, 0x7F)
	b.StB(2, 7, 5) // replace the top byte
	b.Ld(6, 2, 0)
	b.Halt()
	return b.MustBuild().Code
}

func TestMemoryAndByteOps(t *testing.T) {
	p, env := newProc(t, memOpsProgram())
	run(t, p, env)
	if p.Regs.X[3] != 0x11223344AABBCCDD || p.Regs.X[4] != 0xDD {
		t.Errorf("ld/ldb = %#x, %#x", p.Regs.X[3], p.Regs.X[4])
	}
	if p.Regs.X[6] != 0x7F223344AABBCCDD {
		t.Errorf("stb merge = %#x", p.Regs.X[6])
	}
}

func TestControlFlowAndLinkage(t *testing.T) {
	b := asm.NewBuilder("flow")
	b.MovI(1, 0)
	b.Jal("sub")  // x15 = return
	b.MovI(2, 42) // executed after return
	b.Halt()
	b.Label("sub")
	b.AddI(1, 1, 5)
	b.Jr(15)
	p, env := newProc(t, b.MustBuild().Code)
	s := run(t, p, env)
	if s.Reason != StopHalt || p.Regs.X[1] != 5 || p.Regs.X[2] != 42 {
		t.Errorf("call/return failed: %v x1=%d x2=%d", s, p.Regs.X[1], p.Regs.X[2])
	}
}

// countLoop counts x1 up to n in a two-instruction loop (AddI at PC 2, Blt at
// PC 3), then halts: one retired branch per iteration.
func countLoop(n int64) []isa.Instr {
	b := asm.NewBuilder("loop")
	b.MovI(1, 0)
	b.MovI(2, n)
	b.Label("loop")
	b.AddI(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustBuild().Code
}

func TestBranchCounterExactAndDeterministic(t *testing.T) {
	b := asm.NewBuilder("count")
	b.MovI(1, 0)
	b.MovI(2, 50)
	b.Label("loop")
	b.AddI(1, 1, 1)
	b.Blt(1, 2, "loop") // 50 branch retirements (49 taken + 1 fall-through)
	b.Jmp("end")        // +1
	b.Label("end")
	b.Halt()
	code := b.MustBuild().Code

	counts := make([]uint64, 2)
	for i := range counts {
		p, env := newProc(t, code)
		run(t, p, env)
		counts[i] = p.Branches
	}
	if counts[0] != counts[1] {
		t.Errorf("branch counter nondeterministic: %d vs %d", counts[0], counts[1])
	}
	if counts[0] != 51 {
		t.Errorf("branches = %d, want 51 (conditional retired 50x + jmp)", counts[0])
	}
}

func TestInstrCounterOvercounts(t *testing.T) {
	p, env := newProc(t, countLoop(2000))
	// force many supervisor stops via a breakpoint in the loop
	p.SetBreakpoint(3)
	stops := 0
	for {
		s := p.Run(env, 1_000_000)
		if s.Reason == StopHalt {
			break
		}
		if s.Reason != StopBreakpoint {
			t.Fatalf("unexpected stop %v", s.Reason)
		}
		stops++
	}
	if stops == 0 {
		t.Fatal("breakpoint never hit")
	}
	if p.ReadInstrCounter() < p.Instrs {
		t.Error("noisy counter below the true count")
	}
	if p.ReadInstrCounter() == p.Instrs {
		t.Error("instruction counter showed no overcount despite thousands of stops" +
			" (the nondeterminism §4.2.1 relies on)")
	}
}

func TestBranchCounterOverflowWithSkid(t *testing.T) {
	p, env := newProc(t, countLoop(100_000))
	const target = 500
	p.ArmBranchCounter(target)
	s := run(t, p, env)
	if s.Reason != StopCounter {
		t.Fatalf("stop = %v, want counter overflow", s.Reason)
	}
	if p.Branches < target {
		t.Errorf("delivered before target: %d < %d", p.Branches, target)
	}
	// skid bound: at most maxSkid instructions past the trigger, and each
	// loop iteration is 2 instructions, so at most maxSkid extra branches
	if p.Branches > target+p.MaxSkid() {
		t.Errorf("skid exceeded bound: %d > %d", p.Branches, target+p.MaxSkid())
	}
	// counter disarmed after delivery
	if s := run(t, p, env); s.Reason != StopHalt {
		t.Errorf("resume after overflow: %v", s.Reason)
	}
}

func TestBreakpointStopAndResume(t *testing.T) {
	b := asm.NewBuilder("bp")
	b.MovI(1, 1)
	b.MovI(2, 2)
	b.MovI(3, 3)
	b.Halt()
	code := b.MustBuild().Code
	p, env := newProc(t, code)
	p.SetBreakpoint(1)
	s := run(t, p, env)
	if s.Reason != StopBreakpoint || p.PC != 1 {
		t.Fatalf("stop %v at pc %d, want breakpoint at 1", s.Reason, p.PC)
	}
	if p.Regs.X[2] != 0 {
		t.Error("breakpointed instruction already executed")
	}
	// resume executes past the breakpoint without retriggering
	s = run(t, p, env)
	if s.Reason != StopHalt || p.Regs.X[2] != 2 || p.Regs.X[3] != 3 {
		t.Errorf("resume failed: %v x2=%d x3=%d", s.Reason, p.Regs.X[2], p.Regs.X[3])
	}
}

func TestBreakpointInLoopHitsEveryIteration(t *testing.T) {
	p, env := newProc(t, countLoop(5))
	p.SetBreakpoint(2) // the AddI inside the loop
	hits := 0
	for {
		s := run(t, p, env)
		if s.Reason == StopHalt {
			break
		}
		if s.Reason != StopBreakpoint {
			t.Fatalf("stop %v", s.Reason)
		}
		hits++
	}
	if hits != 5 {
		t.Errorf("breakpoint hits = %d, want 5", hits)
	}
}

// spinProgram is an endless one-instruction loop.
func spinProgram() []isa.Instr {
	b := asm.NewBuilder("limit")
	b.Label("spin")
	b.Jmp("spin")
	return b.MustBuild().Code
}

func TestInstrLimit(t *testing.T) {
	p, env := newProc(t, spinProgram())
	p.InstrLimit = 1000
	s := run(t, p, env)
	if s.Reason != StopInstrLimit {
		t.Fatalf("stop = %v, want instr-limit", s.Reason)
	}
	if p.Instrs < 1000 || p.Instrs > 1001 {
		t.Errorf("stopped at %d instructions", p.Instrs)
	}
}

// segvProgram loads from an unmapped address.
func segvProgram() []isa.Instr {
	b := asm.NewBuilder("segv")
	b.MovI(1, 0x7000_0000)
	b.Ld(2, 1, 0)
	b.Halt()
	return b.MustBuild().Code
}

func TestMemoryFaultDelivery(t *testing.T) {
	p, env := newProc(t, segvProgram())
	s := run(t, p, env)
	if s.Reason != StopSignal || s.Sig != SIGSEGV || s.Fault == nil {
		t.Fatalf("stop = %+v, want SIGSEGV with fault", s)
	}
	if s.Fault.Addr != 0x7000_0000 {
		t.Errorf("fault addr = %#x", s.Fault.Addr)
	}
}

func TestPCOutOfCodeFaults(t *testing.T) {
	code := []isa.Instr{{Op: isa.OpNop}} // falls off the end
	p, env := newProc(t, code)
	s := run(t, p, env)
	if s.Reason != StopSignal || s.Sig != SIGSEGV {
		t.Errorf("running off code end: %v/%v", s.Reason, s.Sig)
	}
}

func TestSignalHandlerDispatch(t *testing.T) {
	b := asm.NewBuilder("sig")
	b.MovI(1, 10)
	b.Halt()
	b.Label("handler")
	b.AddI(1, 1, 90)
	b.Jr(HandlerLinkReg)
	prog := b.MustBuild()
	p2, env2 := newProc(t, prog.Code)
	p2.Handlers[SIGUSR1] = prog.Labels["handler"]
	// state as if MovI already executed: x1 = 10, about to halt at PC 1
	p2.Regs.X[1] = 10
	p2.PC = 1
	if !p2.DeliverSignal(SIGUSR1) {
		t.Fatal("handled signal killed the process")
	}
	if p2.PC != prog.Labels["handler"] || p2.Regs.X[HandlerLinkReg] != 1 {
		t.Fatalf("dispatch: pc=%d link=%d", p2.PC, p2.Regs.X[HandlerLinkReg])
	}
	s := run(t, p2, env2)
	if s.Reason != StopHalt || p2.Regs.X[1] != 100 {
		t.Errorf("handler did not run and return: %v x1=%d", s.Reason, p2.Regs.X[1])
	}
}

func TestUnhandledSignalKills(t *testing.T) {
	p, _ := newProc(t, []isa.Instr{{Op: isa.OpHalt}})
	if p.DeliverSignal(SIGINT) {
		t.Error("unhandled signal survived")
	}
	if !p.Exited || p.KilledBy != SIGINT {
		t.Errorf("kill state: exited=%v by=%v", p.Exited, p.KilledBy)
	}
}

func TestSIGKILLIgnoresHandlers(t *testing.T) {
	p, _ := newProc(t, []isa.Instr{{Op: isa.OpHalt}})
	p.Handlers[SIGKILL] = 0
	if p.DeliverSignal(SIGKILL) {
		t.Error("SIGKILL was caught by a handler")
	}
}

// forkProgram stores x1 at 256, then halts.
func forkProgram() []isa.Instr {
	b := asm.NewBuilder("fork")
	b.MovI(1, 7)
	b.MovI(2, 256)
	b.St(2, 0, 1)
	b.Halt()
	return b.MustBuild().Code
}

func TestForkSemantics(t *testing.T) {
	p, env := newProc(t, forkProgram())
	run(t, p, env)

	child := p.Fork(2, 2, "child", 123)
	if child.Regs != p.Regs || child.PC != p.PC {
		t.Error("fork did not copy registers/PC")
	}
	if child.Branches != 0 || child.Instrs != 0 {
		t.Error("fork must reset PMU counters")
	}
	// memory isolation
	child.AS.StoreU64(256, 999) //nolint:errcheck
	if v, _ := p.AS.LoadU64(256); v != 7 {
		t.Errorf("parent memory corrupted by child: %d", v)
	}
}

// trapsProgram stops at a nondeterministic instruction, then at a syscall.
func trapsProgram() []isa.Instr {
	b := asm.NewBuilder("traps")
	b.Rdtsc(1)
	b.Syscall()
	b.Halt()
	return b.MustBuild().Code
}

func TestSyscallAndNondetTrap(t *testing.T) {
	p, env := newProc(t, trapsProgram())

	s := run(t, p, env)
	if s.Reason != StopNondet || p.PC != 0 {
		t.Fatalf("first stop %v at %d, want nondet at 0", s.Reason, p.PC)
	}
	// supervisor emulates and advances
	p.Regs.X[1] = 1234
	p.PC++
	p.Instrs++

	s = run(t, p, env)
	if s.Reason != StopSyscall || p.PC != 1 {
		t.Fatalf("second stop %v at %d, want syscall at 1", s.Reason, p.PC)
	}
	p.PC++
	p.Instrs++
	if s = run(t, p, env); s.Reason != StopHalt {
		t.Errorf("final stop %v", s.Reason)
	}
}

func TestFlipRegisterBit(t *testing.T) {
	p, _ := newProc(t, []isa.Instr{{Op: isa.OpHalt}})
	p.Regs.X[3] = 0
	p.FlipRegisterBit(GPRClass, 3, 0, 5)
	if p.Regs.X[3] != 32 {
		t.Errorf("gpr flip: %d", p.Regs.X[3])
	}
	p.Regs.F[2] = 1.0
	p.FlipRegisterBit(FPRClass, 2, 0, 0)
	if math.Float64bits(p.Regs.F[2]) != math.Float64bits(1.0)^1 {
		t.Error("fpr flip failed")
	}
	p.FlipRegisterBit(VRClass, 1, 2, 63)
	if p.Regs.V[1][2] != 1<<63 {
		t.Errorf("vr flip: %#x", p.Regs.V[1][2])
	}
	// out-of-range silently ignored
	p.FlipRegisterBit(GPRClass, 99, 0, 0)
	p.FlipRegisterBit(VRClass, 0, 99, 0)
}

func TestRegsEqualAndDiff(t *testing.T) {
	var a, b Regs
	if !a.Equal(&b) {
		t.Error("zero register files differ")
	}
	b.X[5] = 1
	if a.Equal(&b) {
		t.Error("differing files compare equal")
	}
	if d := a.Diff(&b); d == "" {
		t.Error("Diff empty for differing files")
	}
	// NaN bit-pattern comparison
	var c, d Regs
	c.F[0] = math.NaN()
	d.F[0] = math.NaN()
	if !c.Equal(&d) {
		t.Error("identical NaN patterns must compare equal")
	}
}

func TestTimingAccumulates(t *testing.T) {
	p, env := newProc(t, countLoop(1000))
	run(t, p, env)
	if p.UserNs <= 0 || p.UserCycles <= 0 {
		t.Errorf("no time accumulated: %v ns, %v cycles", p.UserNs, p.UserCycles)
	}
	// cycles = ns x frequency
	wantCycles := p.UserNs * env.Core.FreqGHz()
	if math.Abs(p.UserCycles-wantCycles)/wantCycles > 1e-9 {
		t.Errorf("cycles %v != ns*freq %v", p.UserCycles, wantCycles)
	}
}

// TestALUMatchesGoSemantics is a property test: Add/Sub/Mul/And/Or/Xor on
// the guest must agree with Go's uint64 arithmetic.
func TestALUMatchesGoSemantics(t *testing.T) {
	m := machine.New(machine.AppleM2Like())
	env := ExecEnv{Machine: m, Core: m.BigCores()[0], Contention: 1, Fabric: 1}
	ops := []struct {
		op isa.Op
		f  func(a, b uint64) uint64
	}{
		{isa.OpAdd, func(a, b uint64) uint64 { return a + b }},
		{isa.OpSub, func(a, b uint64) uint64 { return a - b }},
		{isa.OpMul, func(a, b uint64) uint64 { return a * b }},
		{isa.OpAnd, func(a, b uint64) uint64 { return a & b }},
		{isa.OpOr, func(a, b uint64) uint64 { return a | b }},
		{isa.OpXor, func(a, b uint64) uint64 { return a ^ b }},
		{isa.OpShl, func(a, b uint64) uint64 { return a << (b & 63) }},
		{isa.OpShr, func(a, b uint64) uint64 { return a >> (b & 63) }},
	}
	check := func(opIdx uint8, a, b uint64) bool {
		o := ops[int(opIdx)%len(ops)]
		code := []isa.Instr{
			{Op: o.op, Rd: 3, Ra: 1, Rb: 2},
			{Op: isa.OpHalt},
		}
		as := mem.NewAddressSpace(pg)
		p := New(1, 1, "q", code, as, 1)
		p.Regs.X[1], p.Regs.X[2] = a, b
		p.Run(env, 10)
		return p.Regs.X[3] == o.f(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// lineMixKernel walks a pointer over the arena in 44-byte steps, so each
// iteration's loads and stores fall at a different line offset: repeated
// accesses to one line, word, vector, float and byte accesses that straddle
// two lines, and a load and a store that straddle two pages. A second
// pointer steps a line pair at a time through the upper half and touches
// the pair's second line only with a load that starts in the first line,
// right after a byte load from that first line.
func lineMixKernel(iters int64) []isa.Instr {
	b := asm.NewBuilder("linemix")
	b.MovI(1, 0)
	b.MovI(3, iters)
	b.MovI(4, 0)
	b.MovI(10, pg-4)
	b.MovI(11, 0)
	b.Label("loop")
	b.AddI(4, 4, 44)
	b.AndI(4, 4, 2*pg-1)
	b.Ld(6, 4, 0)
	b.Ld(7, 4, 8)
	b.St(4, 16, 6)
	b.LdB(8, 4, 61)
	b.St(4, 60, 7)
	b.VLd(1, 4, 0)
	b.VSt(4, 64, 1)
	b.FLd(1, 4, 24)
	b.FSt(4, 32, 1)
	b.Ld(9, 10, 0)
	b.St(10, pg, 9)
	b.AddI(11, 11, 128)
	b.AndI(11, 11, pg-1)
	b.LdB(12, 11, 2*pg+63)
	b.Ld(12, 11, 2*pg+60)
	b.AddI(1, 1, 1)
	b.Blt(1, 3, "loop")
	b.Halt()
	return b.MustBuild().Code
}

// TestSameLineMemoIsExact: Run charges an access to the line its previous
// one-line access touched as an L1 hit without probing the cache. One Run
// over the whole kernel must leave the machine's caches byte for byte as a
// Run per instruction does (each starts with no remembered line), with the
// same DRAM accesses, instruction count and registers, on a big core and on
// a little one.
func TestSameLineMemoIsExact(t *testing.T) {
	for _, little := range []bool{false, true} {
		var procs [2]*Process
		var envs [2]ExecEnv
		for i := range procs {
			p, env := newProc(t, lineMixKernel(800))
			if little {
				env.Core = env.Machine.LittleCores()[0]
			}
			procs[i], envs[i] = p, env
		}
		whole, stepped := procs[0], procs[1]
		if s := whole.Run(envs[0], 1_000_000); s.Reason != StopHalt {
			t.Fatalf("little=%v: one Run stopped with %v, want halt", little, s)
		}
		for i := 0; i < 1_000_000 && !stepped.Exited; i++ {
			if s := stepped.Run(envs[1], 1); s.Reason != StopBudget && s.Reason != StopHalt {
				t.Fatalf("little=%v: a one-instruction Run stopped with %v", little, s)
			}
		}
		if !stepped.Exited {
			t.Fatalf("little=%v: the stepped run never halted", little)
		}
		if whole.DRAMAccesses == 0 || whole.DRAMAccesses != stepped.DRAMAccesses {
			t.Errorf("little=%v: %d DRAM accesses in one Run, %d stepped; want equal and nonzero",
				little, whole.DRAMAccesses, stepped.DRAMAccesses)
		}
		if g, w := envs[0].Machine.DRAMAccesses(), envs[1].Machine.DRAMAccesses(); g != w {
			t.Errorf("little=%v: the machine counted %d DRAM accesses in one Run, %d stepped", little, g, w)
		}
		if whole.Instrs != stepped.Instrs {
			t.Errorf("little=%v: %d instructions in one Run, %d stepped", little, whole.Instrs, stepped.Instrs)
		}
		if !whole.Regs.Equal(&stepped.Regs) {
			t.Errorf("little=%v: registers differ:%s", little, whole.Regs.Diff(&stepped.Regs))
		}
		if !reflect.DeepEqual(envs[0].Machine.Caches, envs[1].Machine.Caches) {
			t.Errorf("little=%v: one Run left different cache tags than a Run per instruction", little)
		}
	}
}
