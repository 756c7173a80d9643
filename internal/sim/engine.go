// Package sim is the co-simulation engine: it executes guest processes
// pinned to simulated cores, advances per-core clocks, models DRAM
// bandwidth contention between concurrently running processes, and provides
// the untraced baseline runner against which all overheads are measured.
//
// The engine uses a conservative schedule: among all live tasks, the one
// with the smallest clock runs next, for a bounded quantum. Because tasks
// only interact at segment boundaries (fork and comparison, both driven by
// the fault-tolerance runtimes), this ordering is exact with respect to
// architectural state and a good approximation for timing.
package sim

import (
	"fmt"

	"parallaft/internal/asm"
	"parallaft/internal/isa"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/proc"
)

// DefaultQuantum is the instruction budget per scheduling quantum.
const DefaultQuantum = 8192

// Task is one process pinned to one core, with its own wall-clock position.
type Task struct {
	P    *proc.Process
	Core *machine.Core

	// Clock is this task's position on the simulated wall clock, in ns.
	Clock float64

	// dramRate is an EWMA of DRAM accesses per ns, used for contention.
	dramRate float64
	lastDRAM uint64
	lastTime float64
	retired  bool
}

// DRAMRate returns the task's smoothed DRAM accesses per nanosecond.
func (t *Task) DRAMRate() float64 { return t.dramRate }

// Engine drives the machine.
type Engine struct {
	M *machine.Machine
	K *oskernel.Kernel
	L *oskernel.Loader

	tasks []*Task

	// MaxInstr aborts any single RunBaseline after this many instructions
	// (a runaway-guest guard); zero means no limit.
	MaxInstr uint64
}

// New creates an engine over a machine. The loader seed is also the
// kernel's (already set by the caller when constructing them).
func New(m *machine.Machine, k *oskernel.Kernel, l *oskernel.Loader) *Engine {
	return &Engine{M: m, K: k, L: l}
}

// Clone copies the engine for a snapshot of a run: machine, kernel, loader
// and the live tasks, in the order the contention sum follows. procOf maps a
// process to its copy; taskOf maps any task, live or retired, to its one copy.
func (e *Engine) Clone(procOf func(*proc.Process) *proc.Process) (c *Engine, taskOf func(*Task) *Task) {
	cp := *e
	c = &cp
	c.M = e.M.Clone()
	c.K = e.K.Clone()
	c.L = e.L.Clone(c.K)
	copies := make(map[*Task]*Task)
	taskOf = func(t *Task) *Task {
		if t == nil {
			return nil
		}
		n := copies[t]
		if n == nil {
			n = new(Task)
			*n = *t
			n.P, n.Core = procOf(t.P), c.M.Cores[t.Core.ID]
			copies[t] = n
		}
		return n
	}
	c.tasks = make([]*Task, len(e.tasks))
	for i, t := range e.tasks {
		c.tasks[i] = taskOf(t)
	}
	return c, taskOf
}

// contentionCoeff scales how much each concurrent DRAM-heavy task inflates
// every other task's DRAM latency.
const contentionCoeff = 1.1

// fabricCoeff is a uniform slowdown per concurrently live task, modelling
// interconnect/prefetcher/SoC-fabric interference that hits even
// cache-resident code when many cores are active.
const fabricCoeff = 0.02

// refDRAMRate is the DRAM service capacity used for contention weighting:
// one line every 15 ns. A task's weight is its observed miss rate over this
// capacity, so a big-core pointer chase weighs several times more than a
// little core's serialised miss stream — little checkers demand much less
// bandwidth, which is why Parallaft suffers less DRAM contention than RAFT
// for the same workload (§5.2).
const refDRAMRate = 1.0 / 15.0

// NewTask registers a process on a core, starting its clock at startNs.
func (e *Engine) NewTask(p *proc.Process, core *machine.Core, startNs float64) *Task {
	t := &Task{P: p, Core: core, Clock: startNs, lastTime: startNs, lastDRAM: p.DRAMAccesses}
	e.tasks = append(e.tasks, t)
	return t
}

// Retire removes a task from contention accounting.
func (e *Engine) Retire(t *Task) {
	if t.retired {
		return
	}
	t.retired = true
	for i, x := range e.tasks {
		if x == t {
			e.tasks = append(e.tasks[:i], e.tasks[i+1:]...)
			return
		}
	}
}

// Contention returns the DRAM latency multiplier task t currently sees:
// 1 plus a weighted count of the *other* live tasks, each weighted by how
// memory-bound it has recently been.
func (e *Engine) Contention(t *Task) float64 {
	load := 0.0
	for _, o := range e.tasks {
		if o == t {
			continue
		}
		load += o.dramRate / refDRAMRate
	}
	return 1 + contentionCoeff*load
}

// Run dispatches the task for up to budget instructions, advancing its
// clock and updating its contention weight, and returns the stop.
func (e *Engine) Run(t *Task, budget uint64) proc.Stop {
	p := t.P
	before := p.UserNs + p.SysNs
	fabric := fabricCoeff * float64(len(e.tasks)-1)
	if fabric > 0.08 {
		fabric = 0.08 // interference saturates; more co-runners stop adding
	}
	stop := p.Run(proc.ExecEnv{
		Machine:    e.M,
		Core:       t.Core,
		Contention: e.Contention(t),
		Fabric:     1 + fabric,
	}, budget)
	e.advance(t, before)
	return stop
}

// ExecSyscall executes a syscall for a task stopped at a Syscall
// instruction, charging kernel time to the task's clock. It does not set
// the return register or advance the PC (see oskernel.Finish) so that
// fault-tolerance runtimes can interpose record/replay logic around it.
func (e *Engine) ExecSyscall(t *Task, info oskernel.Info) oskernel.Result {
	e.K.Now = func() float64 { return t.Clock }
	before := t.P.UserNs + t.P.SysNs
	r := e.K.Execute(t.P, proc.ExecEnv{Machine: e.M, Core: t.Core}, info)
	e.advance(t, before)
	return r
}

// advance moves the task clock to cover all time the process accumulated
// since `before`, and refreshes the DRAM-rate EWMA.
func (e *Engine) advance(t *Task, before float64) {
	p := t.P
	after := p.UserNs + p.SysNs
	t.Clock += after - before

	dt := t.Clock - t.lastTime
	if dt > 0 {
		inst := float64(p.DRAMAccesses-t.lastDRAM) / dt
		const alpha = 0.3
		t.dramRate = alpha*inst + (1-alpha)*t.dramRate
		t.lastDRAM = p.DRAMAccesses
		t.lastTime = t.Clock
	}
}

// ChargeSys adds supervisor time to a task (tracing work, fork cost) and
// advances its clock accordingly.
func (e *Engine) ChargeSys(t *Task, ns float64) {
	before := t.P.UserNs + t.P.SysNs
	t.P.ChargeSys(proc.ExecEnv{Machine: e.M, Core: t.Core}, ns)
	e.advance(t, before)
}

// ChargeRuntime advances the task's wall clock by tracer/runtime work that
// is neither guest user time nor guest system time — ptrace-style stops,
// record/replay bookkeeping, dirty-bit clearing. Keeping it out of the
// user/sys accounts lets the evaluation recover the paper's "runtime work"
// overhead component as the residual of the breakdown (§5.2.1). The time is
// still charged to the core for energy purposes.
func (e *Engine) ChargeRuntime(t *Task, ns float64) {
	t.Clock += ns
	t.Core.AccountActive(ns)
	t.lastTime = t.Clock
}

// EmulateNondet computes the value a nondeterministic instruction produces
// when executed "for real" at the task's current time on its core: the
// timestamp counter advances with wall time, and MIDR identifies the core
// type, so the same instruction gives different answers on big and little
// cores — exactly the divergence Parallaft must virtualise (§4.3.4).
func EmulateNondet(p *proc.Process, core *machine.Core, nowNs float64) uint64 {
	ins := p.CurrentInstr()
	if ins == nil {
		return 0
	}
	switch ins.Op {
	case isa.OpRdtsc:
		return uint64(nowNs)
	case isa.OpMrs:
		switch ins.Imm {
		case isa.SysRegMIDR:
			if core.Kind == machine.Big {
				return 0x610
			}
			return 0x611
		case isa.SysRegCNTVCT:
			return uint64(nowNs)
		}
	}
	return 0
}

// FinishNondet commits an emulated nondeterministic value: writes the
// destination register and advances the PC.
func FinishNondet(p *proc.Process, value uint64) {
	ins := p.CurrentInstr()
	if ins == nil {
		return
	}
	p.Regs.X[ins.Rd] = value
	p.PC++
	p.Instrs++
}

// BaselineResult summarises an untraced run.
type BaselineResult struct {
	WallNs   float64
	UserNs   float64
	SysNs    float64
	Instrs   uint64
	Branches uint64
	ExitCode int64
	KilledBy proc.Signal
	Stdout   []byte
	EnergyJ  float64
	PeakPSS  float64
	AvgPSS   float64
}

// PSSSampleIntervalNs is the memory-sampling period of the baseline and of
// the protected runtime (the paper's 0.5 s at the simulation time scale).
const PSSSampleIntervalNs = 200_000

// RunBaseline executes a program to completion, untraced, on the given
// core at maximum frequency, and reports timing, energy and output. This is
// the denominator of every overhead the evaluation reports.
func (e *Engine) RunBaseline(prog *asm.Program, core *machine.Core) (*BaselineResult, error) {
	p, err := e.L.Exec(prog)
	if err != nil {
		return nil, err
	}
	core.SetMaxFreq()
	t := e.NewTask(p, core, 0)
	defer e.Retire(t)

	res := &BaselineResult{}
	var pssAccum float64
	pssSamples := 0
	nextSample := float64(PSSSampleIntervalNs)
	for !p.Exited {
		if e.MaxInstr != 0 && p.Instrs > e.MaxInstr {
			return nil, fmt.Errorf("sim: %s exceeded instruction cap %d", prog.Name, e.MaxInstr)
		}
		stop := e.Run(t, DefaultQuantum)
		if t.Clock >= nextSample {
			nextSample = t.Clock + PSSSampleIntervalNs
			pssAccum += p.AS.PSSBytes()
			pssSamples++
		}
		switch stop.Reason {
		case proc.StopBudget:
			// keep going
		case proc.StopHalt:
			// done
		case proc.StopSyscall:
			info := oskernel.Decode(p)
			r := e.ExecSyscall(t, info)
			if !r.Exited {
				oskernel.Finish(p, r.Ret)
				if r.SelfSignal != proc.SigNone {
					if !p.DeliverSignal(r.SelfSignal) {
						res.KilledBy = r.SelfSignal
					}
				}
			}
		case proc.StopNondet:
			v := EmulateNondet(p, t.Core, t.Clock)
			FinishNondet(p, v)
		case proc.StopSignal:
			if !p.DeliverSignal(stop.Sig) {
				res.KilledBy = stop.Sig
			}
		default:
			return nil, fmt.Errorf("sim: unexpected stop %v in baseline run of %s", stop.Reason, prog.Name)
		}
	}
	res.WallNs = t.Clock
	res.UserNs = p.UserNs
	res.SysNs = p.SysNs
	res.Instrs = p.Instrs
	res.Branches = p.Branches
	res.ExitCode = p.ExitCode
	if res.KilledBy == proc.SigNone {
		res.KilledBy = p.KilledBy
	}
	res.Stdout = append([]byte(nil), e.K.Stdout(p.PID)...)
	res.PeakPSS = p.AS.PSSBytes()
	res.EnergyJ = e.M.EnergyJ(res.WallNs)
	if pssSamples > 0 {
		res.AvgPSS = pssAccum / float64(pssSamples)
	} else {
		res.AvgPSS = res.PeakPSS
	}
	e.L.Reap(p)
	return res, nil
}
