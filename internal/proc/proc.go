// Package proc implements simulated guest processes: the architectural
// register file, the instruction interpreter, the per-process performance
// monitoring unit (PMU), breakpoints, signals, and fork.
//
// The PMU mirrors the hardware behaviours Parallaft's execution-point
// record-and-replay depends on (§4.2):
//
//   - a retired-branch counter that is exact and deterministic (the
//     property the paper relies on after excluding far branches);
//   - counter overflow delivery with *skid*: the stop arrives a small,
//     nondeterministic number of instructions after the branch that caused
//     the overflow, forcing the replay algorithm to undershoot and finish
//     with breakpoints;
//   - an instruction counter that overcounts nondeterministically (noise
//     accumulates across supervisor interactions, like interrupt returns on
//     real hardware), which is why instruction counts can only be used with
//     a safety scale (the 1.1× timeout of §4.2.2) and never for precise
//     execution points.
package proc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"parallaft/internal/cache"
	"parallaft/internal/isa"
	"parallaft/internal/machine"
	"parallaft/internal/mem"
)

// Signal numbers delivered to guest processes.
type Signal uint8

// Guest signals (a small, fixed set).
const (
	SigNone Signal = iota
	SIGSEGV
	SIGFPE
	SIGILL
	SIGINT
	SIGUSR1
	SIGUSR2
	SIGKILL
)

// String names the signal.
func (s Signal) String() string {
	switch s {
	case SigNone:
		return "none"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGFPE:
		return "SIGFPE"
	case SIGILL:
		return "SIGILL"
	case SIGINT:
		return "SIGINT"
	case SIGUSR1:
		return "SIGUSR1"
	case SIGUSR2:
		return "SIGUSR2"
	case SIGKILL:
		return "SIGKILL"
	}
	return fmt.Sprintf("sig(%d)", uint8(s))
}

// Regs is the architectural register file.
type Regs struct {
	X [isa.NumGPR]uint64
	F [isa.NumFPR]float64
	V [isa.NumVR][isa.VLanes]uint64
}

// Equal compares register files bit-exactly (NaNs compare by bit pattern,
// as a hardware comparator would).
func (r *Regs) Equal(o *Regs) bool {
	if r.X != o.X || r.V != o.V {
		return false
	}
	for i := range r.F {
		if math.Float64bits(r.F[i]) != math.Float64bits(o.F[i]) {
			return false
		}
	}
	return true
}

// Diff describes the registers that differ between two files, for error
// reports.
func (r *Regs) Diff(o *Regs) string {
	var sb strings.Builder
	for i := range r.X {
		if r.X[i] != o.X[i] {
			fmt.Fprintf(&sb, " x%d=%#x/%#x", i, r.X[i], o.X[i])
		}
	}
	for i := range r.F {
		if math.Float64bits(r.F[i]) != math.Float64bits(o.F[i]) {
			fmt.Fprintf(&sb, " f%d=%v/%v", i, r.F[i], o.F[i])
		}
	}
	for i := range r.V {
		if r.V[i] != o.V[i] {
			fmt.Fprintf(&sb, " v%d", i)
		}
	}
	return sb.String()
}

// StopReason says why the interpreter returned control to the supervisor.
type StopReason uint8

// Stop reasons.
const (
	StopBudget     StopReason = iota // instruction budget exhausted
	StopHalt                         // executed Halt
	StopSyscall                      // stopped at an unexecuted Syscall
	StopNondet                       // stopped at an unexecuted Rdtsc/Mrs
	StopBreakpoint                   // stopped at a code breakpoint
	StopCounter                      // branch-counter overflow delivered
	StopSignal                       // fault raised a pending signal
	StopInstrLimit                   // hard instruction ceiling reached
)

// String names the stop reason.
func (s StopReason) String() string {
	switch s {
	case StopBudget:
		return "budget"
	case StopHalt:
		return "halt"
	case StopSyscall:
		return "syscall"
	case StopNondet:
		return "nondet"
	case StopBreakpoint:
		return "breakpoint"
	case StopCounter:
		return "counter"
	case StopSignal:
		return "signal"
	case StopInstrLimit:
		return "instr-limit"
	}
	return fmt.Sprintf("stop(%d)", uint8(s))
}

// Stop describes an interpreter exit.
type Stop struct {
	Reason StopReason
	Sig    Signal     // for StopSignal
	Fault  *mem.Fault // for StopSignal caused by a memory fault
}

// ExecEnv tells Run where the process is executing.
type ExecEnv struct {
	Machine    *machine.Machine
	Core       *machine.Core
	Contention float64 // DRAM contention factor, >= 1
	Fabric     float64 // uniform fabric-interference factor, >= 1
}

// CostPolicy is what Run charges, chosen once per process (Fork inherits it).
// Timed charges every instruction through the cost tables and the cache
// model onto the process's clock and the machine's books. Functional keeps no
// clock and charges nothing, not even copy-on-write; registers, memory and
// soft-dirty bits, the PMU (counts, skid, noise), breakpoints, InstrLimit and
// every stop are Timed's, because none of them reads a clock.
type CostPolicy uint8

const (
	Timed CostPolicy = iota
	Functional
)

// Sampler receives deterministic sim-clock profile samples from the
// interpreter dispatch loop: one call each time the process's simulated
// user-cycle clock crosses a sample point, with the guest PC about to
// retire and the kind of core executing it. Implementations must be
// observation-only and allocation-free in steady state — the call happens
// inside the hot loop.
type Sampler interface {
	ProfileSample(pc uint64, kind machine.CoreKind)
}

// Process is one simulated guest process.
type Process struct {
	PID  int
	ASID uint64
	Name string

	Regs Regs
	PC   uint64
	Code []isa.Instr // shared, immutable
	AS   *mem.AddressSpace

	// PMU state.
	Branches   uint64 // exact retired branch count (free-running)
	Instrs     uint64 // exact retired instruction count
	instrNoise uint64 // accumulated overcount visible through ReadInstrCounter

	counterArmed    bool
	counterTarget   uint64
	overflowPending bool
	skidRemaining   uint64
	maxSkid         uint64

	breakpoints map[uint64]struct{}
	// bpBits mirrors the in-code breakpoints as a bitmap indexed by PC, so
	// the hot loop tests a breakpoint with one shift-and-mask instead of a
	// map probe. Breakpoints past the end of code live only in the map —
	// the PC bound check fires before they could ever be consulted.
	bpBits     []uint64
	skipBPOnce bool // resume past a just-hit breakpoint

	Policy CostPolicy // set before the first Run

	// InstrLimit, when nonzero, kills the run with StopInstrLimit once the
	// exact instruction count reaches it (the supervisor derives it from
	// the noisy counter with the 1.1× scale).
	InstrLimit uint64

	// Timing accumulators (nanoseconds of simulated time).
	UserNs     float64
	SysNs      float64
	UserCycles float64 // user time integrated against core frequency

	// DRAMAccesses counts this process's accesses that reached DRAM, used
	// by the engine's bandwidth-contention model.
	DRAMAccesses uint64

	// Signal dispatch: handler PC per signal. On delivery x12 holds the
	// interrupted PC and control transfers to the handler, which returns
	// with `jr x12`.
	Handlers map[Signal]uint64

	Exited   bool
	ExitCode int64
	KilledBy Signal

	// pre is the predecoded program, built lazily on first Run and shared
	// across forks exactly like Code (see predecode.go).
	pre *program
	// ct caches per-environment instruction timing tables across Run calls.
	ct costTables

	// rngSeed seeds the PMU noise source; rng is created on first draw, so
	// checkpoint forks (which never execute) skip math/rand state setup.
	rngSeed int64
	rng     *rand.Rand

	// Profiling state (see SetSampler): sample points are absolute values of
	// the user-cycle clock, spaced samplePeriod cycles apart, so sampling is
	// deterministic for a deterministic run regardless of quantum boundaries.
	sampler          Sampler
	samplePeriod     float64
	sampleNextCycles float64
}

// HandlerLinkReg is the GPR that receives the interrupted PC on signal
// delivery.
const HandlerLinkReg = 12

// New creates a process executing code with the given address space. The
// seed drives the process's PMU nondeterminism (skid, overcount noise).
func New(pid int, asid uint64, name string, code []isa.Instr, as *mem.AddressSpace, seed int64) *Process {
	return &Process{
		PID:         pid,
		ASID:        asid,
		Name:        name,
		Code:        code,
		AS:          as,
		breakpoints: make(map[uint64]struct{}),
		Handlers:    make(map[Signal]uint64),
		maxSkid:     defaultMaxSkid,
		rngSeed:     seed,
	}
}

// rand returns the PMU noise source, created on first draw. The state
// depends only on the seed and the draw sequence, so lazy creation is
// invisible to determinism; it exists because most forks are checkpoints
// that never execute, and math/rand seeding is costly relative to a fork.
func (p *Process) rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.rngSeed))
	}
	return p.rng
}

// defaultMaxSkid bounds counter-overflow skid in retired instructions.
const defaultMaxSkid = 24

// SetMaxSkid overrides the PMU's maximum overflow skid (used by the
// no-skid-buffer ablation and tests).
func (p *Process) SetMaxSkid(n uint64) { p.maxSkid = n }

// MaxSkid returns the PMU's maximum overflow skid.
func (p *Process) MaxSkid() uint64 { return p.maxSkid }

// Fork clones the process copy-on-write: registers and PC are copied, the
// address space forks, PMU counters start fresh, and handlers are inherited.
func (p *Process) Fork(pid int, asid uint64, name string, seed int64) *Process {
	child := New(pid, asid, name, p.Code, p.AS.Fork(), seed)
	child.Regs = p.Regs
	child.PC = p.PC
	child.maxSkid = p.maxSkid
	child.Policy = p.Policy
	child.pre = p.pre // the predecoded program is shared like the text
	for sig, h := range p.Handlers {
		child.Handlers[sig] = h
	}
	return child
}

// --- PMU -----------------------------------------------------------------

// ArmBranchCounter arranges a StopCounter once the free-running branch
// counter reaches target (plus skid). Arming with target <= current count
// triggers on the next retired branch.
func (p *Process) ArmBranchCounter(target uint64) {
	p.counterArmed = true
	p.counterTarget = target
	p.overflowPending = false
	p.skidRemaining = 0
}

// DisarmBranchCounter cancels any pending overflow.
func (p *Process) DisarmBranchCounter() {
	p.counterArmed = false
	p.overflowPending = false
}

// ReadInstrCounter returns the *noisy* instruction count a commodity PMU
// would report: the exact count plus accumulated overcount (§4.2.1).
func (p *Process) ReadInstrCounter() uint64 { return p.Instrs + p.instrNoise }

// SetSampler attaches a profile sampler, scheduling the first sample point
// periodCycles user cycles from the process's current clock; nil detaches.
// Fork children start without a sampler (the runtime attaches one per
// actor), so attaching is always an explicit, deterministic act. A
// Functional process has no clock to sample against: attaching to one panics.
func (p *Process) SetSampler(s Sampler, periodCycles float64) {
	if s == nil || periodCycles <= 0 {
		p.sampler = nil
		p.samplePeriod = 0
		p.sampleNextCycles = 0
		return
	}
	if p.Policy == Functional {
		panic("proc: SetSampler on a Functional process, which keeps no clock")
	}
	p.sampler = s
	p.samplePeriod = periodCycles
	p.sampleNextCycles = p.UserCycles + periodCycles
}

// supervisorStop models the PMU noise added by each trap into the
// supervisor (interrupt/exception returns overcount instructions-retired on
// real hardware).
func (p *Process) supervisorStop() {
	p.instrNoise += uint64(p.rand().Intn(3))
}

// --- breakpoints -----------------------------------------------------------

// SetBreakpoint installs a code breakpoint at the instruction index.
func (p *Process) SetBreakpoint(pc uint64) {
	p.breakpoints[pc] = struct{}{}
	if pc < uint64(len(p.Code)) {
		if p.bpBits == nil {
			p.bpBits = make([]uint64, (len(p.Code)+63)/64)
		}
		p.bpBits[pc>>6] |= 1 << (pc & 63)
	}
}

// ClearBreakpoint removes a code breakpoint.
func (p *Process) ClearBreakpoint(pc uint64) {
	delete(p.breakpoints, pc)
	if p.bpBits != nil && pc < uint64(len(p.Code)) {
		p.bpBits[pc>>6] &^= 1 << (pc & 63)
	}
}

// ClearAllBreakpoints removes every breakpoint.
func (p *Process) ClearAllBreakpoints() {
	clear(p.breakpoints)
	for i := range p.bpBits {
		p.bpBits[i] = 0
	}
}

// HasBreakpoint reports whether a breakpoint is set at pc.
func (p *Process) HasBreakpoint(pc uint64) bool {
	_, ok := p.breakpoints[pc]
	return ok
}

// --- signals ----------------------------------------------------------------

// DeliverSignal delivers sig at the current execution point. If a handler is
// registered, x12 receives the interrupted PC and control transfers to the
// handler; otherwise the process is killed. Returns whether the process
// survived.
func (p *Process) DeliverSignal(sig Signal) bool {
	if h, ok := p.Handlers[sig]; ok && sig != SIGKILL {
		p.Regs.X[HandlerLinkReg] = p.PC
		p.PC = h
		return true
	}
	p.Exited = true
	p.KilledBy = sig
	return false
}

// --- interpreter ------------------------------------------------------------

// Run interprets instructions until the budget is exhausted or a stop event
// occurs, accumulating simulated time onto the process and the core if Timed.
//
// Stop semantics: for StopSyscall and StopNondet the PC rests *on* the
// unexecuted instruction; the supervisor emulates it and must advance the
// PC. For StopBreakpoint the PC rests on the breakpointed instruction and
// the next Run resumes past it. For StopSignal the PC rests on the faulting
// instruction. For StopCounter the PC rests on the next unexecuted
// instruction (skid already applied).
func (p *Process) Run(env ExecEnv, budget uint64) Stop {
	if p.Exited {
		return Stop{Reason: StopHalt}
	}
	hier := env.Machine.Caches
	kind := env.Core.Kind
	freq := env.Core.FreqGHz()
	coreID := env.Core.ID
	contention := env.Contention
	if contention < 1 {
		contention = 1
	}
	fabric := env.Fabric
	if fabric < 1 {
		fabric = 1
	}
	// The policy is read once: Functional masks every access out of the cache
	// probe, and its cost tables, never built, make the class cost add zero.
	timed := p.Policy == Timed
	probe := pfMem
	if timed {
		p.ct.ensure(&env.Machine.Cost, kind, freq, contention)
	} else {
		probe = 0
	}
	ct := &p.ct
	code := p.ensurePredecode().code
	codeLen := uint64(len(code))

	var ns float64
	stop := Stop{Reason: StopBudget}

	// Profiling thresholds translated into the run-local ns domain: fabric
	// and frequency are constant for the duration of one Run call, so the
	// absolute user-cycle sample point maps to a fixed local-ns value and
	// the hot loop pays a single float compare per instruction. With no
	// sampler attached the threshold is +Inf and the compare never fires.
	sampler := p.sampler
	sampleAt := math.Inf(1)
	var samplePeriodNs float64
	if sampler != nil && p.samplePeriod > 0 {
		cycPerNs := fabric * freq
		sampleAt = (p.sampleNextCycles - p.UserCycles) / cycPerNs
		samplePeriodNs = p.samplePeriod / cycPerNs
	}

	// The hot-loop state lives in locals; the deferred epilogue writes it
	// back on every exit path, of which the loop has many.
	pc := p.PC
	instrs := p.Instrs
	branches := p.Branches
	armed := p.counterArmed
	target := p.counterTarget
	ovf := p.overflowPending
	skid := p.skidRemaining
	skipBP := p.skipBPOnce
	limit := p.InstrLimit
	r := &p.Regs
	as := p.AS
	hasBP := len(p.breakpoints) != 0 && p.bpBits != nil
	bpBits := p.bpBits

	defer func() {
		p.PC = pc
		p.Instrs = instrs
		p.Branches = branches
		p.counterArmed = armed
		p.overflowPending = ovf
		p.skidRemaining = skid
		p.skipBPOnce = skipBP
		if timed {
			ns *= fabric
			p.UserNs += ns
			p.UserCycles += ns * freq
			env.Core.AccountActive(ns)
		}
		if stop.Reason != StopBudget && stop.Reason != StopHalt {
			p.supervisorStop()
		}
	}()

	for executed := uint64(0); executed < budget; executed++ {
		// Deliver a pending counter overflow once the skid has elapsed.
		if ovf && skid == 0 {
			ovf = false
			armed = false
			stop = Stop{Reason: StopCounter}
			return stop
		}
		if limit != 0 && instrs >= limit {
			stop = Stop{Reason: StopInstrLimit}
			return stop
		}
		if pc >= codeLen {
			stop = Stop{Reason: StopSignal, Sig: SIGSEGV}
			return stop
		}
		if hasBP && !skipBP {
			if bpBits[pc>>6]&(1<<(pc&63)) != 0 {
				skipBP = true
				stop = Stop{Reason: StopBreakpoint}
				return stop
			}
		}
		skipBP = false

		ins := &code[pc]
		fl := ins.flags

		// Trapped instructions stop *before* executing.
		if fl&pfTrap != 0 {
			switch ins.op {
			case isa.OpSyscall:
				stop = Stop{Reason: StopSyscall}
			case isa.OpRdtsc, isa.OpMrs:
				stop = Stop{Reason: StopNondet}
			default: // OpHalt
				p.Exited = true
				instrs++
				stop = Stop{Reason: StopHalt}
			}
			return stop
		}

		// Timing: base class cost, plus the memory hierarchy for accesses.
		if fl&probe != 0 {
			lvl := hier.AccessRange(coreID, p.ASID, r.X[ins.ra]+uint64(ins.imm), int(ins.size))
			if lvl == cache.DRAM {
				env.Machine.CountDRAMAccess()
				p.DRAMAccesses++
			}
			ns += ct.mem[ins.memIdx][lvl]
		} else {
			ns += ct.class[ins.class]
		}

		// Deterministic sim-clock sample points: fire when the accrued local
		// time crosses the next threshold, attributing the sample to the PC
		// being retired. A loop, not an if — a single slow instruction (DRAM
		// miss) can cross several periods.
		for ns >= sampleAt {
			sampler.ProfileSample(pc, kind)
			p.sampleNextCycles += p.samplePeriod
			sampleAt += samplePeriodNs
		}

		nextPC := pc + 1

		switch ins.op {
		case isa.OpNop:
		case isa.OpMov:
			r.X[ins.rd] = r.X[ins.ra]
		case isa.OpAdd:
			r.X[ins.rd] = r.X[ins.ra] + r.X[ins.rb]
		case isa.OpSub:
			r.X[ins.rd] = r.X[ins.ra] - r.X[ins.rb]
		case isa.OpMul:
			r.X[ins.rd] = r.X[ins.ra] * r.X[ins.rb]
		case isa.OpDiv:
			if r.X[ins.rb] == 0 {
				stop = Stop{Reason: StopSignal, Sig: SIGFPE}
				return stop
			}
			r.X[ins.rd] = uint64(int64(r.X[ins.ra]) / int64(r.X[ins.rb]))
		case isa.OpRem:
			if r.X[ins.rb] == 0 {
				stop = Stop{Reason: StopSignal, Sig: SIGFPE}
				return stop
			}
			r.X[ins.rd] = uint64(int64(r.X[ins.ra]) % int64(r.X[ins.rb]))
		case isa.OpAnd:
			r.X[ins.rd] = r.X[ins.ra] & r.X[ins.rb]
		case isa.OpOr:
			r.X[ins.rd] = r.X[ins.ra] | r.X[ins.rb]
		case isa.OpXor:
			r.X[ins.rd] = r.X[ins.ra] ^ r.X[ins.rb]
		case isa.OpShl:
			r.X[ins.rd] = r.X[ins.ra] << (r.X[ins.rb] & 63)
		case isa.OpShr:
			r.X[ins.rd] = r.X[ins.ra] >> (r.X[ins.rb] & 63)
		case isa.OpSlt:
			r.X[ins.rd] = b2u(int64(r.X[ins.ra]) < int64(r.X[ins.rb]))

		case isa.OpMovI:
			r.X[ins.rd] = uint64(ins.imm)
		case isa.OpAddI:
			r.X[ins.rd] = r.X[ins.ra] + uint64(ins.imm)
		case isa.OpMulI:
			r.X[ins.rd] = r.X[ins.ra] * uint64(ins.imm)
		case isa.OpAndI:
			r.X[ins.rd] = r.X[ins.ra] & uint64(ins.imm)
		case isa.OpOrI:
			r.X[ins.rd] = r.X[ins.ra] | uint64(ins.imm)
		case isa.OpXorI:
			r.X[ins.rd] = r.X[ins.ra] ^ uint64(ins.imm)
		case isa.OpShlI:
			r.X[ins.rd] = r.X[ins.ra] << (uint64(ins.imm) & 63)
		case isa.OpShrI:
			r.X[ins.rd] = r.X[ins.ra] >> (uint64(ins.imm) & 63)
		case isa.OpSltI:
			r.X[ins.rd] = b2u(int64(r.X[ins.ra]) < ins.imm)

		case isa.OpFMov:
			r.F[ins.rd] = r.F[ins.ra]
		case isa.OpFMovI:
			r.F[ins.rd] = math.Float64frombits(uint64(ins.imm))
		case isa.OpFAdd:
			r.F[ins.rd] = r.F[ins.ra] + r.F[ins.rb]
		case isa.OpFSub:
			r.F[ins.rd] = r.F[ins.ra] - r.F[ins.rb]
		case isa.OpFMul:
			r.F[ins.rd] = r.F[ins.ra] * r.F[ins.rb]
		case isa.OpFDiv:
			r.F[ins.rd] = r.F[ins.ra] / r.F[ins.rb]
		case isa.OpFSqrt:
			r.F[ins.rd] = math.Sqrt(r.F[ins.ra])
		case isa.OpCvtIF:
			r.F[ins.rd] = float64(int64(r.X[ins.ra]))
		case isa.OpCvtFI:
			r.X[ins.rd] = uint64(int64(r.F[ins.ra]))
		case isa.OpFCmpLt:
			r.X[ins.rd] = b2u(r.F[ins.ra] < r.F[ins.rb])

		case isa.OpVAdd:
			for l := 0; l < isa.VLanes; l++ {
				r.V[ins.rd][l] = r.V[ins.ra][l] + r.V[ins.rb][l]
			}
		case isa.OpVXor:
			for l := 0; l < isa.VLanes; l++ {
				r.V[ins.rd][l] = r.V[ins.ra][l] ^ r.V[ins.rb][l]
			}
		case isa.OpVMul:
			for l := 0; l < isa.VLanes; l++ {
				r.V[ins.rd][l] = r.V[ins.ra][l] * r.V[ins.rb][l]
			}
		case isa.OpVSplat:
			for l := 0; l < isa.VLanes; l++ {
				r.V[ins.rd][l] = r.X[ins.ra]
			}

		case isa.OpLd:
			v, f := as.LoadU64(r.X[ins.ra] + uint64(ins.imm))
			if f != nil {
				stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
				return stop
			}
			r.X[ins.rd] = v
		case isa.OpSt:
			cow, f := as.StoreU64(r.X[ins.ra]+uint64(ins.imm), r.X[ins.rb])
			if f != nil {
				stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
				return stop
			}
			if cow && timed {
				p.chargeCOW(env)
			}
		case isa.OpLdB:
			v, f := as.LoadByte(r.X[ins.ra] + uint64(ins.imm))
			if f != nil {
				stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
				return stop
			}
			r.X[ins.rd] = uint64(v)
		case isa.OpStB:
			cow, f := as.StoreByte(r.X[ins.ra]+uint64(ins.imm), byte(r.X[ins.rb]))
			if f != nil {
				stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
				return stop
			}
			if cow && timed {
				p.chargeCOW(env)
			}
		case isa.OpFLd:
			v, f := as.LoadU64(r.X[ins.ra] + uint64(ins.imm))
			if f != nil {
				stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
				return stop
			}
			r.F[ins.rd] = math.Float64frombits(v)
		case isa.OpFSt:
			cow, f := as.StoreU64(r.X[ins.ra]+uint64(ins.imm), math.Float64bits(r.F[ins.rb]))
			if f != nil {
				stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
				return stop
			}
			if cow && timed {
				p.chargeCOW(env)
			}
		case isa.OpVLd:
			for l := 0; l < isa.VLanes; l++ {
				v, f := as.LoadU64(r.X[ins.ra] + uint64(ins.imm) + uint64(l*8))
				if f != nil {
					stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
					return stop
				}
				r.V[ins.rd][l] = v
			}
		case isa.OpVSt:
			for l := 0; l < isa.VLanes; l++ {
				cow, f := as.StoreU64(r.X[ins.ra]+uint64(ins.imm)+uint64(l*8), r.V[ins.rb][l])
				if f != nil {
					stop = Stop{Reason: StopSignal, Sig: SIGSEGV, Fault: f}
					return stop
				}
				if cow && timed {
					p.chargeCOW(env)
				}
			}

		case isa.OpBeq:
			if r.X[ins.ra] == r.X[ins.rb] {
				nextPC = uint64(ins.imm)
			}
		case isa.OpBne:
			if r.X[ins.ra] != r.X[ins.rb] {
				nextPC = uint64(ins.imm)
			}
		case isa.OpBlt:
			if int64(r.X[ins.ra]) < int64(r.X[ins.rb]) {
				nextPC = uint64(ins.imm)
			}
		case isa.OpBge:
			if int64(r.X[ins.ra]) >= int64(r.X[ins.rb]) {
				nextPC = uint64(ins.imm)
			}
		case isa.OpJmp:
			nextPC = uint64(ins.imm)
		case isa.OpJal:
			r.X[isa.RegLR] = pc + 1
			nextPC = uint64(ins.imm)
		case isa.OpJr:
			nextPC = r.X[ins.ra]

		default:
			stop = Stop{Reason: StopSignal, Sig: SIGILL}
			return stop
		}

		pc = nextPC
		instrs++

		if fl&pfBranch != 0 {
			branches++
			if armed && !ovf && branches >= target {
				ovf = true
				if p.maxSkid > 0 {
					skid = uint64(p.rand().Intn(int(p.maxSkid + 1)))
				}
			}
		} else if ovf && skid > 0 {
			skid--
		}
	}
	return stop
}

// chargeCOW accounts the kernel-side cost of a copy-on-write page copy:
// system time on the process (it does not advance the user-cycle count used
// for slicing, matching the paper's measurement of fork+COW as system CPU
// time, §5.2.1) and DRAM traffic for the page copy.
func (p *Process) chargeCOW(env ExecEnv) {
	pageSize := p.AS.PageSize()
	lines := float64(pageSize) / float64(env.Machine.Caches.LineSize())
	// trap + PTE fixup overhead, plus a line-granular copy through DRAM.
	// Scaled with the simulation's 1:2500 time scale (segments are far
	// shorter than the silicon's, so per-page costs shrink accordingly).
	ns := 60.0 + lines*0.1
	p.SysNs += ns
	prev := env.Core.SetActivity(machine.ActCOW)
	env.Core.AccountActive(ns)
	env.Core.SetActivity(prev)
	// The copy's DRAM energy is represented by a handful of scaled
	// accesses (the per-access energy constant carries the time scale).
	for i := 0; i < int(lines)/32; i++ {
		env.Machine.CountDRAMAccess()
	}
}

// ChargeSys adds supervisor/kernel time to the process (used by the OS and
// the fault-tolerance runtimes for syscall work, fork, tracing overhead).
func (p *Process) ChargeSys(env ExecEnv, ns float64) {
	p.SysNs += ns
	env.Core.AccountActive(ns)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RegClass selects a register file for fault injection.
type RegClass uint8

// Register classes, mirroring the §5.6 fault model: "a random bit flip in a
// random register, selected from the general-purpose, floating-point and
// vector registers".
const (
	GPRClass RegClass = iota
	FPRClass
	VRClass
)

// String names the register class.
func (c RegClass) String() string {
	switch c {
	case GPRClass:
		return "gpr"
	case FPRClass:
		return "fpr"
	case VRClass:
		return "vr"
	}
	return fmt.Sprintf("regclass(%d)", uint8(c))
}

// FlipRegisterBit flips one bit in the selected register, simulating a
// single-event upset. Out-of-range selections are ignored.
func (p *Process) FlipRegisterBit(class RegClass, index, lane int, bit uint) {
	bit &= 63
	switch class {
	case GPRClass:
		if index >= 0 && index < isa.NumGPR {
			p.Regs.X[index] ^= 1 << bit
		}
	case FPRClass:
		if index >= 0 && index < isa.NumFPR {
			bits := math.Float64bits(p.Regs.F[index]) ^ (1 << bit)
			p.Regs.F[index] = math.Float64frombits(bits)
		}
	case VRClass:
		if index >= 0 && index < isa.NumVR && lane >= 0 && lane < isa.VLanes {
			p.Regs.V[index][lane] ^= 1 << bit
		}
	}
}

// CurrentInstr returns the instruction at PC, or nil when PC is out of code.
func (p *Process) CurrentInstr() *isa.Instr {
	if p.PC >= uint64(len(p.Code)) {
		return nil
	}
	return &p.Code[p.PC]
}

// String summarises the process for diagnostics.
func (p *Process) String() string {
	return fmt.Sprintf("proc %d %q pc=%d instrs=%d branches=%d", p.PID, p.Name, p.PC, p.Instrs, p.Branches)
}
