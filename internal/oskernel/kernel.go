// Package oskernel implements the simulated operating system the guest
// programs run on: syscall dispatch with a per-syscall memory-effect model,
// an in-memory file system with device files, per-process file descriptor
// tables, signal registration and delivery, and mmap with address-space
// layout randomisation.
//
// The per-syscall model (which memory regions a syscall reads and writes
// given its arguments) is exactly the machinery Parallaft keeps for syscall
// record-and-replay (§4.3.1): the runtime uses it to capture a syscall's
// inputs and outputs on the main process, to check that the checker makes
// the identical syscall, and to replay the outputs into the checker without
// re-executing the external effect.
package oskernel

import (
	"bytes"
	"fmt"

	"parallaft/internal/lazyrand"
	"parallaft/internal/mem"
	"parallaft/internal/proc"
)

// Sys is a guest syscall number.
type Sys uint16

// Guest syscalls.
const (
	SysExit Sys = iota + 1
	SysWrite
	SysRead
	SysOpen
	SysClose
	SysGetPID
	SysGetTime
	SysGetRandom
	SysBrk
	SysMmap
	SysMunmap
	SysMprotect
	SysSigaction
	SysKill
	SysLSeek
	SysFStat
	SysDup
	numSys
)

// String names the syscall.
func (s Sys) String() string {
	if m := modelOf(s); m != nil {
		return m.Name
	}
	return fmt.Sprintf("sys(%d)", uint16(s))
}

// Class is Parallaft's three-way syscall taxonomy (§4.3.1).
type Class uint8

// Syscall classes.
const (
	// ClassGlobal syscalls have effects outside the sphere of replication
	// (IO). The main executes them; checkers get recorded results replayed
	// so the effect happens exactly once.
	ClassGlobal Class = iota
	// ClassLocal syscalls affect only process-local state (memory maps,
	// signal dispositions). Both main and checkers execute them, with
	// extra handling for memory-related calls.
	ClassLocal
	// ClassNonEffectful syscalls have no external effect but
	// nondeterministic or inconsistent results (getpid, gettime); they are
	// recorded and replayed like global ones.
	ClassNonEffectful
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassGlobal:
		return "global"
	case ClassLocal:
		return "local"
	case ClassNonEffectful:
		return "non-effectful"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Args are the raw syscall arguments (x1..x5).
type Args [5]uint64

// Region is a guest-memory extent.
type Region struct {
	Addr uint64
	Len  uint64
}

// Info is a decoded syscall.
type Info struct {
	Nr   Sys
	Args Args
}

// Decode reads the syscall number and arguments from a process stopped at a
// Syscall instruction.
func Decode(p *proc.Process) Info {
	return Info{
		Nr:   Sys(p.Regs.X[0]),
		Args: Args{p.Regs.X[1], p.Regs.X[2], p.Regs.X[3], p.Regs.X[4], p.Regs.X[5]},
	}
}

// Model describes one syscall's class and memory effects.
type Model struct {
	Name  string
	Class Class
	// In returns the regions the kernel reads given the arguments (data
	// that must match between main and checker).
	In func(k *Kernel, p *proc.Process, a Args) []Region
	// Out returns the regions the kernel wrote given arguments and return
	// value (data replayed into the checker).
	Out func(k *Kernel, p *proc.Process, a Args, ret int64) []Region
}

var models [numSys]*Model

func modelOf(nr Sys) *Model {
	if nr < numSys {
		return models[nr]
	}
	return nil
}

// ModelOf returns the model for a syscall number, or nil if unsupported.
func ModelOf(nr Sys) *Model { return modelOf(nr) }

func init() {
	none := func(*Kernel, *proc.Process, Args) []Region { return nil }
	noneOut := func(*Kernel, *proc.Process, Args, int64) []Region { return nil }
	models[SysExit] = &Model{Name: "exit", Class: ClassGlobal, In: none, Out: noneOut}
	models[SysWrite] = &Model{
		Name: "write", Class: ClassGlobal,
		In: func(_ *Kernel, _ *proc.Process, a Args) []Region {
			return []Region{{Addr: a[1], Len: a[2]}}
		},
		Out: noneOut,
	}
	models[SysRead] = &Model{
		Name: "read", Class: ClassGlobal,
		In: none,
		Out: func(_ *Kernel, _ *proc.Process, a Args, ret int64) []Region {
			if ret <= 0 {
				return nil
			}
			return []Region{{Addr: a[1], Len: uint64(ret)}}
		},
	}
	models[SysOpen] = &Model{
		Name: "open", Class: ClassGlobal,
		In: func(k *Kernel, p *proc.Process, a Args) []Region {
			n := k.cstrLen(p, a[0])
			return []Region{{Addr: a[0], Len: n}}
		},
		Out: noneOut,
	}
	models[SysClose] = &Model{Name: "close", Class: ClassGlobal, In: none, Out: noneOut}
	models[SysGetPID] = &Model{Name: "getpid", Class: ClassNonEffectful, In: none, Out: noneOut}
	models[SysGetTime] = &Model{Name: "gettime", Class: ClassNonEffectful, In: none, Out: noneOut}
	models[SysGetRandom] = &Model{
		Name: "getrandom", Class: ClassNonEffectful,
		In: none,
		Out: func(_ *Kernel, _ *proc.Process, a Args, ret int64) []Region {
			if ret <= 0 {
				return nil
			}
			return []Region{{Addr: a[0], Len: uint64(ret)}}
		},
	}
	models[SysBrk] = &Model{Name: "brk", Class: ClassLocal, In: none, Out: noneOut}
	models[SysMmap] = &Model{Name: "mmap", Class: ClassLocal, In: none, Out: noneOut}
	models[SysMunmap] = &Model{Name: "munmap", Class: ClassLocal, In: none, Out: noneOut}
	models[SysMprotect] = &Model{Name: "mprotect", Class: ClassLocal, In: none, Out: noneOut}
	models[SysSigaction] = &Model{Name: "sigaction", Class: ClassLocal, In: none, Out: noneOut}
	// kill targeting self is deterministic given the syscall position, so
	// both main and checker execute it locally.
	models[SysKill] = &Model{Name: "kill", Class: ClassLocal, In: none, Out: noneOut}
	models[SysLSeek] = &Model{Name: "lseek", Class: ClassGlobal, In: none, Out: noneOut}
	models[SysFStat] = &Model{
		Name: "fstat", Class: ClassGlobal,
		In: none,
		Out: func(_ *Kernel, _ *proc.Process, a Args, ret int64) []Region {
			if ret < 0 {
				return nil
			}
			return []Region{{Addr: a[1], Len: statBufLen}}
		},
	}
	models[SysDup] = &Model{Name: "dup", Class: ClassGlobal, In: none, Out: noneOut}
}

// statBufLen is the size of the fstat result written to guest memory:
// {size int64, kind int64}.
const statBufLen = 16

// lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// maxIOBytes bounds a single read/write so a corrupted guest length cannot
// exhaust host memory.
const maxIOBytes = 64 << 20

// Errno values (returned negative, Linux style).
const (
	EBADF  = 9
	ENOMEM = 12
	EFAULT = 14
	EINVAL = 22
	ENOENT = 2
	ENOSYS = 38
)

// Mmap flags.
const (
	MapFixed     = 1 << 0
	MapAnonymous = 1 << 1
)

// file kinds
type devKind uint8

const (
	devNone devKind = iota
	devZero
	devNull
	devURandom
)

type file struct {
	name string
	data []byte
	dev  devKind
}

type fdEntry struct {
	f   *file
	off uint64
}

type procState struct {
	fds    map[int64]*fdEntry
	nextFD int64
	stdout *bytes.Buffer
}

// Kernel is the simulated OS instance shared by all processes of one run.
type Kernel struct {
	fs    map[string]*file
	procs map[int]*procState
	rng   lazyrand.Stream // ASLR and getrandom

	// Now supplies the current simulated time in nanoseconds; the
	// simulation engine installs it.
	Now func() float64

	pageSize uint64

	// timing model for kernel work, nanoseconds
	baseSyscallNs float64
	perByteIONs   float64
	perPageMapNs  float64

	// counters
	SyscallCount uint64
}

// NewKernel creates a kernel with the given page size. The seed drives
// ASLR and getrandom.
func NewKernel(pageSize uint64, seed int64) *Kernel {
	k := &Kernel{
		fs:            make(map[string]*file),
		procs:         make(map[int]*procState),
		rng:           lazyrand.New(seed),
		Now:           func() float64 { return 0 },
		pageSize:      pageSize,
		baseSyscallNs: 260,
		perByteIONs:   0.35,
		perPageMapNs:  90,
	}
	k.fs["/dev/zero"] = &file{name: "/dev/zero", dev: devZero}
	k.fs["/dev/null"] = &file{name: "/dev/null", dev: devNull}
	k.fs["/dev/urandom"] = &file{name: "/dev/urandom", dev: devURandom}
	return k
}

// AddFile installs a regular file in the in-memory file system.
func (k *Kernel) AddFile(name string, data []byte) {
	k.fs[name] = &file{name: name, data: data}
}

// Register sets up kernel state (fd table, stdout buffer) for a process.
// Fd 1 is stdout.
func (k *Kernel) Register(pid int) {
	st := &procState{fds: make(map[int64]*fdEntry), nextFD: 3, stdout: &bytes.Buffer{}}
	k.procs[pid] = st
}

// ForkState clones the parent's kernel-side state (fd table with offsets)
// for a forked child. The child gets its own stdout buffer so checker
// output can be suppressed or compared by the runtime.
func (k *Kernel) ForkState(parentPID, childPID int) {
	p := k.procs[parentPID]
	st := &procState{fds: make(map[int64]*fdEntry, len(p.fds)), nextFD: p.nextFD, stdout: &bytes.Buffer{}}
	for fd, e := range p.fds {
		cp := *e
		st.fds[fd] = &cp
	}
	k.procs[childPID] = st
}

// Unregister drops a process's kernel state.
func (k *Kernel) Unregister(pid int) { delete(k.procs, pid) }

// AppendStdout appends bytes to a process's stdout buffer. Forward repair
// uses it to carry the faulty main's already-escaped output over to the
// repaired main (replicas replay global writes without re-executing them,
// so a fork of a replica starts with an empty buffer).
func (k *Kernel) AppendStdout(pid int, data []byte) {
	if st, ok := k.procs[pid]; ok {
		st.stdout.Write(data)
	}
}

// Stdout returns the bytes the process has written to fd 1.
func (k *Kernel) Stdout(pid int) []byte {
	if st, ok := k.procs[pid]; ok {
		return st.stdout.Bytes()
	}
	return nil
}

func (k *Kernel) cstrLen(p *proc.Process, addr uint64) uint64 {
	var n uint64
	for n < 4096 {
		b, f := p.AS.LoadByte(addr + n)
		if f != nil || b == 0 {
			break
		}
		n++
	}
	return n
}

func (k *Kernel) readCStr(p *proc.Process, addr uint64) (string, bool) {
	var buf []byte
	for len(buf) < 4096 {
		b, f := p.AS.LoadByte(addr + uint64(len(buf)))
		if f != nil {
			return "", false
		}
		if b == 0 {
			return string(buf), true
		}
		buf = append(buf, b)
	}
	return "", false
}

// PickMmapAddr chooses a randomized, page-aligned base for an mmap without
// a fixed address — the ASLR behaviour Parallaft must record and pin on
// replay (§4.3.2).
func (k *Kernel) PickMmapAddr(p *proc.Process, length uint64) uint64 {
	const window = 1 << 30
	hint := uint64(0x4000_0000) + uint64(k.rng.Rand().Int63n(window))&^(k.pageSize-1)
	return p.AS.FindFree(hint, length)
}

// Result is the outcome of executing a syscall.
type Result struct {
	Ret    int64
	Exited bool
	// SelfSignal is a signal the process raised against itself (kill).
	// The caller must deliver it *after* completing the syscall with
	// Finish, so the handler's return address is the instruction after the
	// syscall rather than the syscall itself.
	SelfSignal proc.Signal
}

// Execute performs the syscall's effect for the process and charges kernel
// time. It does not modify x0 or the PC; callers use Finish (or do their own
// record/replay bookkeeping first, as Parallaft does).
func (k *Kernel) Execute(p *proc.Process, env proc.ExecEnv, info Info) Result {
	k.SyscallCount++
	st := k.procs[p.PID]
	if st == nil {
		// Process not registered — treat as a fatal runtime bug.
		panic(fmt.Sprintf("oskernel: pid %d not registered", p.PID))
	}
	ns := k.baseSyscallNs
	defer func() { p.ChargeSys(env, ns) }()

	a := info.Args
	switch info.Nr {
	case SysExit:
		p.Exited = true
		p.ExitCode = int64(a[0])
		return Result{Ret: 0, Exited: true}

	case SysWrite:
		fd, addr, n := int64(a[0]), a[1], a[2]
		if n > maxIOBytes {
			return Result{Ret: -EINVAL}
		}
		buf := make([]byte, n)
		if f := p.AS.Read(addr, buf); f != nil {
			return Result{Ret: -EFAULT}
		}
		ns += float64(n) * k.perByteIONs
		switch fd {
		case 1, 2:
			st.stdout.Write(buf)
			return Result{Ret: int64(n)}
		default:
			e, ok := st.fds[fd]
			if !ok {
				return Result{Ret: -EBADF}
			}
			switch e.f.dev {
			case devNull, devZero:
				return Result{Ret: int64(n)}
			case devNone:
				// grow-and-overwrite at offset
				end := e.off + n
				if uint64(len(e.f.data)) < end {
					nd := make([]byte, end)
					copy(nd, e.f.data)
					e.f.data = nd
				}
				copy(e.f.data[e.off:end], buf)
				e.off = end
				return Result{Ret: int64(n)}
			default:
				return Result{Ret: -EINVAL}
			}
		}

	case SysRead:
		fd, addr, n := int64(a[0]), a[1], a[2]
		if n > maxIOBytes {
			return Result{Ret: -EINVAL}
		}
		e, ok := st.fds[fd]
		if !ok {
			return Result{Ret: -EBADF}
		}
		buf := make([]byte, n)
		var got int64
		switch e.f.dev {
		case devZero:
			got = int64(n)
		case devNull:
			got = 0
		case devURandom:
			for i := range buf {
				buf[i] = byte(k.rng.Rand().Intn(256))
			}
			got = int64(n)
		default:
			if e.off < uint64(len(e.f.data)) {
				got = int64(copy(buf, e.f.data[e.off:]))
				e.off += uint64(got)
			}
		}
		ns += float64(got) * k.perByteIONs
		if got > 0 {
			if f := p.AS.Write(addr, buf[:got]); f != nil {
				return Result{Ret: -EFAULT}
			}
		}
		return Result{Ret: got}

	case SysOpen:
		path, ok := k.readCStr(p, a[0])
		if !ok {
			return Result{Ret: -EFAULT}
		}
		f, ok := k.fs[path]
		if !ok {
			// create on open for write-ish use; flags are advisory here
			if a[1] != 0 {
				f = &file{name: path}
				k.fs[path] = f
			} else {
				return Result{Ret: -ENOENT}
			}
		}
		fd := st.nextFD
		st.nextFD++
		st.fds[fd] = &fdEntry{f: f}
		return Result{Ret: fd}

	case SysClose:
		fd := int64(a[0])
		if _, ok := st.fds[fd]; !ok {
			return Result{Ret: -EBADF}
		}
		delete(st.fds, fd)
		return Result{Ret: 0}

	case SysGetPID:
		return Result{Ret: int64(p.PID)}

	case SysGetTime:
		return Result{Ret: int64(k.Now())}

	case SysGetRandom:
		addr, n := a[0], a[1]
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(k.rng.Rand().Intn(256))
		}
		if f := p.AS.Write(addr, buf); f != nil {
			return Result{Ret: -EFAULT}
		}
		return Result{Ret: int64(n)}

	case SysBrk:
		return Result{Ret: int64(p.AS.Brk(a[0]))}

	case SysMmap:
		addr, length, prot, flags := a[0], a[1], a[2], a[3]
		length = (length + k.pageSize - 1) &^ (k.pageSize - 1)
		if length == 0 {
			return Result{Ret: -EINVAL}
		}
		if flags&MapFixed == 0 || addr == 0 {
			addr = k.PickMmapAddr(p, length)
		}
		name := "mmap"
		if flags&MapAnonymous == 0 {
			// file-backed private mapping: copy file contents (fd in a[4])
			e, ok := st.fds[int64(a[4])]
			if !ok {
				return Result{Ret: -EBADF}
			}
			if err := p.AS.Map(addr, length, memProt(prot), "mmap:"+e.f.name); err != nil {
				return Result{Ret: -ENOMEM}
			}
			data := e.f.data
			if uint64(len(data)) > length {
				data = data[:length]
			}
			if f := p.AS.Write(addr, data); f != nil {
				return Result{Ret: -EFAULT}
			}
			ns += float64(length/k.pageSize) * k.perPageMapNs
			return Result{Ret: int64(addr)}
		}
		if err := p.AS.Map(addr, length, memProt(prot), name); err != nil {
			return Result{Ret: -ENOMEM}
		}
		ns += float64(length/k.pageSize) * k.perPageMapNs
		return Result{Ret: int64(addr)}

	case SysMunmap:
		if err := p.AS.Unmap(a[0], a[1]); err != nil {
			return Result{Ret: -EINVAL}
		}
		return Result{Ret: 0}

	case SysMprotect:
		if err := p.AS.Protect(a[0], a[1], memProt(a[2])); err != nil {
			return Result{Ret: -EINVAL}
		}
		return Result{Ret: 0}

	case SysSigaction:
		sig := proc.Signal(a[0])
		if sig == proc.SigNone || sig == proc.SIGKILL {
			return Result{Ret: -EINVAL}
		}
		if a[1] == 0 {
			delete(p.Handlers, sig)
		} else {
			p.Handlers[sig] = a[1]
		}
		return Result{Ret: 0}

	case SysKill:
		// Only self-directed signals are supported from guest code.
		if int(a[0]) != p.PID && a[0] != 0 {
			return Result{Ret: -EINVAL}
		}
		ns += 650 // signal setup and delivery path in the kernel
		return Result{Ret: 0, SelfSignal: proc.Signal(a[1])}

	case SysLSeek:
		fd, off, whence := int64(a[0]), int64(a[1]), a[2]
		e, ok := st.fds[fd]
		if !ok {
			return Result{Ret: -EBADF}
		}
		var base int64
		switch whence {
		case SeekSet:
			base = 0
		case SeekCur:
			base = int64(e.off)
		case SeekEnd:
			base = int64(len(e.f.data))
		default:
			return Result{Ret: -EINVAL}
		}
		pos := base + off
		if pos < 0 {
			return Result{Ret: -EINVAL}
		}
		e.off = uint64(pos)
		return Result{Ret: pos}

	case SysFStat:
		fd, addr := int64(a[0]), a[1]
		e, ok := st.fds[fd]
		if !ok {
			return Result{Ret: -EBADF}
		}
		buf := make([]byte, statBufLen)
		putI64 := func(off int, v int64) {
			for i := 0; i < 8; i++ {
				buf[off+i] = byte(v >> (8 * i))
			}
		}
		putI64(0, int64(len(e.f.data)))
		putI64(8, int64(e.f.dev))
		if f := p.AS.Write(addr, buf); f != nil {
			return Result{Ret: -EFAULT}
		}
		return Result{Ret: 0}

	case SysDup:
		fd := int64(a[0])
		e, ok := st.fds[fd]
		if !ok {
			return Result{Ret: -EBADF}
		}
		nfd := st.nextFD
		st.nextFD++
		cp := *e
		st.fds[nfd] = &cp
		return Result{Ret: nfd}
	}

	return Result{Ret: -ENOSYS}
}

// Finish commits a syscall result to the process: sets the return register
// and advances the PC past the Syscall instruction.
func Finish(p *proc.Process, ret int64) {
	p.Regs.X[0] = uint64(ret)
	p.PC++
	p.Instrs++
}

// ReplayFinish is Finish for a checker whose syscall effect was replayed
// rather than executed; identical mechanics, named for call-site clarity.
func ReplayFinish(p *proc.Process, ret int64) { Finish(p, ret) }

// memProt converts guest prot bits (1=read, 2=write) to mem.Prot.
func memProt(v uint64) mem.Prot {
	var pr mem.Prot
	if v&1 != 0 {
		pr |= mem.ProtRead
	}
	if v&2 != 0 {
		pr |= mem.ProtWrite
	}
	return pr
}
