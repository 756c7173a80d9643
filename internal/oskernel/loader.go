package oskernel

import (
	"fmt"

	"parallaft/internal/asm"
	"parallaft/internal/mem"
	"parallaft/internal/proc"
)

// Loader assembles processes from program images and allocates PIDs and
// ASIDs for one simulation run.
type Loader struct {
	kernel   *Kernel
	pageSize uint64
	nextPID  int
	nextASID uint64
	seed     int64
}

// NewLoader returns a loader that registers new processes with the kernel.
// The seed parameterises per-process PMU nondeterminism.
func NewLoader(k *Kernel, pageSize uint64, seed int64) *Loader {
	return &Loader{kernel: k, pageSize: pageSize, nextPID: 100, nextASID: 1, seed: seed}
}

// AllocIDs hands out the next (pid, asid) pair, for every process Exec or
// Fork creates. ASIDs start at 1: the cache model keeps tag 0 for an empty
// way.
func (l *Loader) AllocIDs() (int, uint64) {
	pid := l.nextPID
	asid := l.nextASID
	l.nextPID++
	l.nextASID++
	return pid, asid
}

// PMUSeed returns a distinct deterministic seed for a new process's PMU.
func (l *Loader) PMUSeed(pid int) int64 { return l.seed*1000003 + int64(pid) }

// Exec creates a process from a program image: maps the data image and BSS
// at asm.DataBase, a stack below asm.StackTop, sets the break past the data
// end, points SP at the stack top, and registers the process with the
// kernel.
func (l *Loader) Exec(p *asm.Program) (*proc.Process, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pid, asid := l.AllocIDs()
	as := mem.NewAddressSpace(l.pageSize)

	dataLen := (uint64(len(p.Data)) + p.BSS + l.pageSize - 1) &^ (l.pageSize - 1)
	if dataLen == 0 {
		dataLen = l.pageSize
	}
	if err := as.Map(asm.DataBase, dataLen, mem.ProtRW, "data"); err != nil {
		return nil, fmt.Errorf("oskernel: map data: %w", err)
	}
	if len(p.Data) > 0 {
		if f := as.Write(asm.DataBase, p.Data); f != nil {
			return nil, fmt.Errorf("oskernel: write data image: %v", f)
		}
	}
	stackBase := asm.StackTop - asm.StackSize
	if err := as.Map(stackBase, asm.StackSize, mem.ProtRW, "stack"); err != nil {
		return nil, fmt.Errorf("oskernel: map stack: %w", err)
	}
	as.SetBrk(asm.DataBase + dataLen)

	pr := proc.New(pid, asid, p.Name, p.Code, as, l.PMUSeed(pid))
	pr.PC = p.Entry
	pr.Regs.X[14] = asm.StackTop - 64 // SP, small red zone
	l.kernel.Register(pid)
	return pr, nil
}

// Fork clones a process, wiring up kernel state and fresh IDs. The child
// shares all memory copy-on-write.
func (l *Loader) Fork(parent *proc.Process, name string) *proc.Process {
	pid, asid := l.AllocIDs()
	child := parent.Fork(pid, asid, name, l.PMUSeed(pid))
	l.kernel.ForkState(parent.PID, pid)
	return child
}

// Reap releases a dead process's address space and kernel state so that COW
// map counts reflect only live processes.
func (l *Loader) Reap(p *proc.Process) {
	p.AS.Release()
	l.kernel.Unregister(p.PID)
}
