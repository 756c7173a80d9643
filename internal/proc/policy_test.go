package proc

import (
	"reflect"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/hashx"
	"parallaft/internal/isa"
	"parallaft/internal/machine"
	"parallaft/internal/mem"
)

// dispatchKernel is a tight compute+memory loop that never exits: ALU work,
// a load, a store and a taken branch per iteration over a 32 KiB window of
// the arena. It is the kernel of the benchmark's dispatch probe.
func dispatchKernel() []isa.Instr {
	b := asm.NewBuilder("spin")
	b.MovI(1, 0) // always < x2: the loop never exits
	b.MovI(2, 1)
	b.MovI(3, 0) // accumulator
	b.MovI(4, 0) // arena pointer
	b.Label("loop")
	b.AddI(3, 3, 7)
	b.AndI(5, 3, 4095)
	b.ShlI(5, 5, 3)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 3)
	b.St(5, 0, 6)
	b.Blt(1, 2, "loop")
	return b.MustBuild().Code
}

// signalsProgram divides by zero and then loads from an unmapped address;
// its handler, at PC 1, steps over the faulting instruction each time.
func signalsProgram() []isa.Instr {
	b := asm.NewBuilder("signals")
	b.Jmp("main")
	b.Label("handler")
	b.AddI(HandlerLinkReg, HandlerLinkReg, 1)
	b.Jr(HandlerLinkReg)
	b.Label("main")
	b.MovI(1, 5)
	b.Div(2, 1, 3) // x3 == 0: SIGFPE
	b.MovI(4, 0x7000_0000)
	b.Ld(5, 4, 0) // unmapped: SIGSEGV
	b.MovI(6, 42)
	b.Halt()
	return b.MustBuild().Code
}

// policyRun drives processes through Run and remembers every stop.
type policyRun struct {
	env   ExecEnv
	stops []Stop
}

func (r *policyRun) run(p *Process, budget uint64) Stop {
	s := p.Run(r.env, budget)
	r.stops = append(r.stops, s)
	return s
}

// untilHalt runs p, delivering every signal it raises, until it halts or
// is killed.
func (r *policyRun) untilHalt(p *Process) {
	for i := 0; i < 100; i++ {
		s := r.run(p, 1_000_000)
		if s.Reason != StopSignal || !p.DeliverSignal(s.Sig) {
			return
		}
	}
}

// archState is everything of a process a verdict can see: registers, PC,
// the PMU's exact and noisy counts, exit state, and memory down to the
// soft-dirty bits and the copy-on-write count.
type archState struct {
	Regs                     Regs
	PC, Instrs, Branches     uint64
	Noisy                    uint64
	Exited                   bool
	KilledBy                 Signal
	Pages                    map[uint64]uint64 // VPN -> content hash
	Dirty                    []uint64
	COWCopies, PagesAlloc    uint64
	counterArmed, ovfPending bool
}

func stateOf(p *Process) archState {
	st := archState{
		Regs: p.Regs, PC: p.PC, Instrs: p.Instrs, Branches: p.Branches,
		Noisy: p.ReadInstrCounter(), Exited: p.Exited, KilledBy: p.KilledBy,
		Pages:        make(map[uint64]uint64),
		Dirty:        p.AS.DirtyPages(mem.DirtySoft),
		COWCopies:    p.AS.Stats().COWCopies,
		PagesAlloc:   p.AS.Stats().PagesAlloc,
		counterArmed: p.counterArmed, ovfPending: p.overflowPending,
	}
	for _, fr := range p.AS.FrameRefs() {
		st.Pages[fr.VPN] = hashx.Sum64(1, fr.Frame.Data())
	}
	return st
}

// policyScenarios are the package's test programs, each with the
// supervisor's side of the run: breakpoints, counter arming, signal
// delivery, forks. drive returns every process whose state is compared.
var policyScenarios = []struct {
	name  string
	code  func() []isa.Instr
	drive func(r *policyRun, p *Process) []*Process
}{
	{"alu", aluProgram, nil},
	{"float", floatProgram, nil},
	{"vector", vectorProgram, nil},
	{"memops", memOpsProgram, nil},
	{"budget stops over loads and stores", dispatchKernel, func(r *policyRun, p *Process) []*Process {
		for i := 0; i < 3; i++ {
			r.run(p, 10_000)
		}
		return []*Process{p}
	}},
	{"copy-on-write store after fork", forkProgram, func(r *policyRun, p *Process) []*Process {
		r.run(p, 2) // stopped before the store
		p.AS.ClearSoftDirty()
		child := p.Fork(2, 2, "child", 123)
		child.Regs.X[1] = 99
		r.untilHalt(child) // copies the page
		r.untilHalt(p)
		return []*Process{p, child}
	}},
	{"breakpoint in a loop", func() []isa.Instr { return countLoop(5) }, func(r *policyRun, p *Process) []*Process {
		p.SetBreakpoint(2)
		for r.run(p, 1_000_000).Reason == StopBreakpoint {
			// the next Run resumes past the breakpoint
		}
		return []*Process{p}
	}},
	{"branch counter with skid", func() []isa.Instr { return countLoop(100_000) }, func(r *policyRun, p *Process) []*Process {
		for _, target := range []uint64{500, 1_000, 40_000} {
			p.ArmBranchCounter(target)
			r.run(p, 1_000_000)
		}
		r.untilHalt(p)
		return []*Process{p}
	}},
	{"instruction limit", spinProgram, func(r *policyRun, p *Process) []*Process {
		p.InstrLimit = 1000
		r.run(p, 400)
		r.run(p, 1_000_000)
		return []*Process{p}
	}},
	{"unhandled SIGSEGV", segvProgram, nil},
	{"SIGFPE and SIGSEGV handlers", signalsProgram, func(r *policyRun, p *Process) []*Process {
		p.Handlers[SIGFPE] = 1
		p.Handlers[SIGSEGV] = 1
		r.untilHalt(p)
		return []*Process{p}
	}},
	{"syscall and nondet traps", trapsProgram, func(r *policyRun, p *Process) []*Process {
		for i := 0; i < 3 && r.run(p, 1_000_000).Reason != StopHalt; i++ {
			p.PC++ // the supervisor emulates the trapped instruction
			p.Instrs++
		}
		return []*Process{p}
	}},
}

// TestFunctionalMatchesTimed: one interpreter, run with and without a
// machine. Every test program ends in the same architectural state, through
// the same stops, either way — and with no machine every simulated book of
// the process stays empty, a sampler attached to it never fires, and
// ChargeSys charges nothing.
func TestFunctionalMatchesTimed(t *testing.T) {
	var timedNs float64
	var cows uint64
	var timedSamples int
	reasons := make(map[StopReason]bool)
	for _, sc := range policyScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var stops [2][]Stop
			var states [2][]archState
			for i, timed := range []bool{true, false} {
				p, env := newProc(t, sc.code())
				var samples countingSampler
				p.SetSampler(&samples, 1)
				if !timed {
					env = ExecEnv{}
				}
				r := &policyRun{env: env}
				procs := []*Process{p}
				if sc.drive == nil {
					r.untilHalt(p)
				} else {
					procs = sc.drive(r, p)
				}
				stops[i] = r.stops
				for _, s := range r.stops {
					reasons[s.Reason] = true
				}
				for _, q := range procs {
					states[i] = append(states[i], stateOf(q))
					if timed {
						timedNs += q.UserNs
						cows += q.AS.Stats().COWCopies
						continue
					}
					q.ChargeSys(env, 1_000)
					if q.UserNs != 0 || q.UserCycles != 0 || q.SysNs != 0 || q.DRAMAccesses != 0 {
						t.Errorf("functional %s charged user %v ns, %v cycles, sys %v ns, %d DRAM accesses",
							q.Name, q.UserNs, q.UserCycles, q.SysNs, q.DRAMAccesses)
					}
				}
				if timed {
					timedSamples += int(samples)
				} else if samples != 0 {
					t.Errorf("a run with no machine took %d profile samples", samples)
				}
			}
			if !reflect.DeepEqual(stops[0], stops[1]) {
				t.Errorf("stops differ:\ntimed      %+v\nfunctional %+v", stops[0], stops[1])
			}
			if len(states[0]) != len(states[1]) {
				t.Fatalf("%d processes timed, %d functional", len(states[0]), len(states[1]))
			}
			for i := range states[0] {
				a, b := states[0][i], states[1][i]
				if !a.Regs.Equal(&b.Regs) {
					t.Errorf("process %d: registers differ:%s", i, a.Regs.Diff(&b.Regs))
				}
				a.Regs, b.Regs = Regs{}, Regs{}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("process %d differs:\ntimed      %+v\nfunctional %+v", i, a, b)
				}
			}
		})
	}
	// The scenarios must reach what they claim to cover, or equality pins
	// nothing: every stop reason, a copy-on-write copy, a timed clock and a
	// timed profile sample.
	for r := StopBudget; r <= StopInstrLimit; r++ {
		if !reasons[r] {
			t.Errorf("no scenario stops with %v", r)
		}
	}
	if cows == 0 || timedNs == 0 || timedSamples == 0 {
		t.Errorf("timed scenarios made %d copy-on-write copies, charged %v ns and took %d samples; want all nonzero",
			cows, timedNs, timedSamples)
	}
}

// countingSampler counts the samples it is handed.
type countingSampler int

func (c *countingSampler) ProfileSample(uint64, machine.CoreKind) { *c++ }

// BenchmarkRun is the in-tree twin of the benchmark's
// proc.dispatch_minstr_per_s probe (the same kernel and budget), with and
// without a machine, so the switch's cost on the timed path can be measured
// beside the functional path's gain.
func BenchmarkRun(b *testing.B) {
	const perRun = 100_000
	for _, bc := range []struct {
		name  string
		timed bool
	}{{"timed", true}, {"functional", false}} {
		b.Run(bc.name, func(b *testing.B) {
			p, env := newProc(b, dispatchKernel())
			if !bc.timed {
				env = ExecEnv{}
			}
			p.Run(env, 50_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(env, perRun)
			}
			b.ReportMetric(float64(b.N)*perRun/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}
