package oskernel

import (
	"bytes"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/machine"
	"parallaft/internal/proc"
)

const pg = 16 * 1024

type fixture struct {
	k   *Kernel
	l   *Loader
	m   *machine.Machine
	p   *proc.Process
	env proc.ExecEnv
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := machine.New(machine.AppleM2Like())
	k := NewKernel(pg, 7)
	l := NewLoader(k, pg, 7)
	b := asm.NewBuilder("t")
	b.Space("buf", 4*pg)
	b.Halt()
	p, err := l.Exec(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{k: k, l: l, m: m, p: p,
		env: proc.ExecEnv{Machine: m, Core: m.BigCores()[0], Contention: 1, Fabric: 1}}
}

func (f *fixture) sys(nr Sys, args ...uint64) Result {
	info := Info{Nr: nr}
	copy(info.Args[:], args)
	return f.k.Execute(f.p, f.env, info)
}

func (f *fixture) bufAddr(t *testing.T) uint64 {
	t.Helper()
	return asm.DataBase // "buf" is the first data symbol
}

func TestWriteToStdout(t *testing.T) {
	f := newFixture(t)
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, []byte("hello")) //nolint:errcheck
	r := f.sys(SysWrite, 1, addr, 5)
	if r.Ret != 5 {
		t.Fatalf("write ret = %d", r.Ret)
	}
	if got := f.k.Stdout(f.p.PID); string(got) != "hello" {
		t.Errorf("stdout = %q", got)
	}
}

func TestWriteBadPointer(t *testing.T) {
	f := newFixture(t)
	if r := f.sys(SysWrite, 1, 0xdead0000, 8); r.Ret != -EFAULT {
		t.Errorf("ret = %d, want -EFAULT", r.Ret)
	}
}

func TestOpenReadCloseRegularFile(t *testing.T) {
	f := newFixture(t)
	f.k.AddFile("/data/input", []byte("abcdefghij"))
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, append([]byte("/data/input"), 0)) //nolint:errcheck

	r := f.sys(SysOpen, addr, 0)
	if r.Ret < 3 {
		t.Fatalf("open ret = %d", r.Ret)
	}
	fd := uint64(r.Ret)

	dst := addr + pg
	if r := f.sys(SysRead, fd, dst, 4); r.Ret != 4 {
		t.Fatalf("read ret = %d", r.Ret)
	}
	got := make([]byte, 4)
	f.p.AS.Read(dst, got) //nolint:errcheck
	if string(got) != "abcd" {
		t.Errorf("read data = %q", got)
	}
	// sequential offset advances
	if r := f.sys(SysRead, fd, dst, 4); r.Ret != 4 {
		t.Fatal("second read failed")
	}
	f.p.AS.Read(dst, got) //nolint:errcheck
	if string(got) != "efgh" {
		t.Errorf("second read = %q", got)
	}
	// EOF
	if r := f.sys(SysRead, fd, dst, 100); r.Ret != 2 {
		t.Errorf("eof read ret = %d", r.Ret)
	}
	if r := f.sys(SysClose, fd); r.Ret != 0 {
		t.Errorf("close ret = %d", r.Ret)
	}
	if r := f.sys(SysRead, fd, dst, 1); r.Ret != -EBADF {
		t.Errorf("read after close = %d, want -EBADF", r.Ret)
	}
}

func TestOpenMissingFile(t *testing.T) {
	f := newFixture(t)
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, append([]byte("/no/such"), 0)) //nolint:errcheck
	if r := f.sys(SysOpen, addr, 0); r.Ret != -ENOENT {
		t.Errorf("ret = %d, want -ENOENT", r.Ret)
	}
	// create-on-open with nonzero flags
	if r := f.sys(SysOpen, addr, 1); r.Ret < 3 {
		t.Errorf("create-open ret = %d", r.Ret)
	}
}

func TestDevZeroAndNull(t *testing.T) {
	f := newFixture(t)
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, append([]byte("/dev/zero"), 0)) //nolint:errcheck
	fd := uint64(f.sys(SysOpen, addr, 0).Ret)
	dst := addr + pg
	f.p.AS.StoreU64(dst, ^uint64(0)) //nolint:errcheck
	if r := f.sys(SysRead, fd, dst, 8); r.Ret != 8 {
		t.Fatalf("read /dev/zero = %d", r.Ret)
	}
	if v, _ := f.p.AS.LoadU64(dst); v != 0 {
		t.Errorf("/dev/zero returned %#x", v)
	}
	if r := f.sys(SysWrite, fd, dst, 8); r.Ret != 8 {
		t.Errorf("write /dev/zero = %d", r.Ret)
	}
}

func TestReadSizeCapped(t *testing.T) {
	f := newFixture(t)
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, append([]byte("/dev/zero"), 0)) //nolint:errcheck
	fd := uint64(f.sys(SysOpen, addr, 0).Ret)
	if r := f.sys(SysRead, fd, addr, 1<<40); r.Ret != -EINVAL {
		t.Errorf("giant read ret = %d, want -EINVAL", r.Ret)
	}
}

func TestGetPIDAndTime(t *testing.T) {
	f := newFixture(t)
	if r := f.sys(SysGetPID); r.Ret != int64(f.p.PID) {
		t.Errorf("getpid = %d, want %d", r.Ret, f.p.PID)
	}
	f.k.Now = func() float64 { return 12345 }
	if r := f.sys(SysGetTime); r.Ret != 12345 {
		t.Errorf("gettime = %d", r.Ret)
	}
}

func TestGetRandomNondeterministic(t *testing.T) {
	f := newFixture(t)
	addr := f.bufAddr(t)
	f.sys(SysGetRandom, addr, 8)
	v1, _ := f.p.AS.LoadU64(addr)
	f.sys(SysGetRandom, addr, 8)
	v2, _ := f.p.AS.LoadU64(addr)
	if v1 == v2 {
		t.Error("consecutive getrandom calls returned identical data")
	}
}

func TestBrkSyscall(t *testing.T) {
	f := newFixture(t)
	cur := f.sys(SysBrk, 0).Ret
	if cur <= 0 {
		t.Fatalf("brk query = %d", cur)
	}
	grown := f.sys(SysBrk, uint64(cur)+pg).Ret
	if grown != cur+pg {
		t.Errorf("brk grow = %d, want %d", grown, cur+pg)
	}
}

func TestMmapAnonymousASLR(t *testing.T) {
	f := newFixture(t)
	r1 := f.sys(SysMmap, 0, pg, 3, MapAnonymous)
	r2 := f.sys(SysMmap, 0, pg, 3, MapAnonymous)
	if r1.Ret <= 0 || r2.Ret <= 0 {
		t.Fatalf("mmap rets = %d, %d", r1.Ret, r2.Ret)
	}
	if r1.Ret == r2.Ret {
		t.Error("two anonymous mmaps landed at the same address")
	}
	// ASLR differs across kernels with different seeds
	k2 := NewKernel(pg, 8)
	l2 := NewLoader(k2, pg, 8)
	b := asm.NewBuilder("t2")
	b.Halt()
	p2, _ := l2.Exec(b.MustBuild())
	info := Info{Nr: SysMmap, Args: [5]uint64{0, pg, 3, MapAnonymous}}
	r3 := k2.Execute(p2, f.env, info)
	if r3.Ret == r1.Ret {
		t.Error("ASLR identical across differently seeded kernels")
	}
	// mapping is usable
	if fault := f.p.AS.Write(uint64(r1.Ret), []byte{1}); fault != nil {
		t.Errorf("write to mmapped page faulted: %v", fault)
	}
}

func TestMmapFixed(t *testing.T) {
	f := newFixture(t)
	base := f.p.AS.FindFree(0x5000_0000, pg)
	r := f.sys(SysMmap, base, pg, 3, MapAnonymous|MapFixed)
	if uint64(r.Ret) != base {
		t.Errorf("fixed mmap at %#x returned %#x", base, r.Ret)
	}
}

func TestMmapFileBacked(t *testing.T) {
	f := newFixture(t)
	f.k.AddFile("/data/blob", bytes.Repeat([]byte{0xAB}, 100))
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, append([]byte("/data/blob"), 0)) //nolint:errcheck
	fd := uint64(f.sys(SysOpen, addr, 0).Ret)
	r := f.sys(SysMmap, 0, pg, 3, 0, fd)
	if r.Ret <= 0 {
		t.Fatalf("file mmap ret = %d", r.Ret)
	}
	b, _ := f.p.AS.LoadByte(uint64(r.Ret) + 50)
	if b != 0xAB {
		t.Errorf("mapped file content = %#x", b)
	}
	// bad fd
	if r := f.sys(SysMmap, 0, pg, 3, 0, 999); r.Ret != -EBADF {
		t.Errorf("file mmap with bad fd = %d", r.Ret)
	}
}

func TestMunmapAndMprotect(t *testing.T) {
	f := newFixture(t)
	r := f.sys(SysMmap, 0, 2*pg, 3, MapAnonymous)
	base := uint64(r.Ret)
	if rr := f.sys(SysMprotect, base, 2*pg, 1); rr.Ret != 0 {
		t.Fatalf("mprotect = %d", rr.Ret)
	}
	if _, fault := f.p.AS.StoreU64(base, 1); fault == nil {
		t.Error("write allowed after mprotect(read)")
	}
	if rr := f.sys(SysMunmap, base, 2*pg); rr.Ret != 0 {
		t.Fatalf("munmap = %d", rr.Ret)
	}
	if _, fault := f.p.AS.LoadU64(base); fault == nil {
		t.Error("read allowed after munmap")
	}
}

func TestSigactionAndKill(t *testing.T) {
	f := newFixture(t)
	if r := f.sys(SysSigaction, uint64(proc.SIGUSR1), 5); r.Ret != 0 {
		t.Fatalf("sigaction = %d", r.Ret)
	}
	if f.p.Handlers[proc.SIGUSR1] != 5 {
		t.Error("handler not registered")
	}
	r := f.sys(SysKill, uint64(f.p.PID), uint64(proc.SIGUSR1))
	if r.Ret != 0 || r.SelfSignal != proc.SIGUSR1 {
		t.Errorf("kill = %+v, want deferred self-signal", r)
	}
	// deregister
	f.sys(SysSigaction, uint64(proc.SIGUSR1), 0)
	if _, ok := f.p.Handlers[proc.SIGUSR1]; ok {
		t.Error("handler not removed")
	}
	// cross-process kill rejected
	if r := f.sys(SysKill, 9999, uint64(proc.SIGUSR1)); r.Ret != -EINVAL {
		t.Errorf("cross-pid kill = %d", r.Ret)
	}
	// SIGKILL registration rejected
	if r := f.sys(SysSigaction, uint64(proc.SIGKILL), 5); r.Ret != -EINVAL {
		t.Errorf("sigaction SIGKILL = %d", r.Ret)
	}
}

func TestExit(t *testing.T) {
	f := newFixture(t)
	r := f.sys(SysExit, 42)
	if !r.Exited || !f.p.Exited || f.p.ExitCode != 42 {
		t.Errorf("exit: %+v, proc %v/%d", r, f.p.Exited, f.p.ExitCode)
	}
}

func TestUnknownSyscall(t *testing.T) {
	f := newFixture(t)
	if r := f.sys(Sys(200)); r.Ret != -ENOSYS {
		t.Errorf("unknown syscall = %d, want -ENOSYS", r.Ret)
	}
}

func TestFinishAdvances(t *testing.T) {
	f := newFixture(t)
	pc, instrs := f.p.PC, f.p.Instrs
	Finish(f.p, -3)
	var wantRet uint64 = 0xFFFFFFFFFFFFFFFD // -3 as two's complement
	if f.p.Regs.X[0] != wantRet || f.p.PC != pc+1 || f.p.Instrs != instrs+1 {
		t.Error("Finish did not commit the syscall")
	}
}

func TestModelsCoverAllSyscalls(t *testing.T) {
	for nr := Sys(1); nr < numSys; nr++ {
		m := ModelOf(nr)
		if m == nil {
			t.Errorf("syscall %d has no model", nr)
			continue
		}
		if m.Name == "" || m.In == nil || m.Out == nil {
			t.Errorf("%v model incomplete", nr)
		}
	}
	if ModelOf(Sys(250)) != nil {
		t.Error("model for undefined syscall")
	}
}

func TestModelRegions(t *testing.T) {
	f := newFixture(t)
	addr := f.bufAddr(t)

	// write: input region covers the buffer
	in := ModelOf(SysWrite).In(f.k, f.p, Args{1, addr, 64})
	if len(in) != 1 || in[0].Addr != addr || in[0].Len != 64 {
		t.Errorf("write in-regions = %+v", in)
	}
	// read: output region sized by the return value
	out := ModelOf(SysRead).Out(f.k, f.p, Args{3, addr, 100}, 42)
	if len(out) != 1 || out[0].Len != 42 {
		t.Errorf("read out-regions = %+v", out)
	}
	if out := ModelOf(SysRead).Out(f.k, f.p, Args{3, addr, 100}, -EBADF); out != nil {
		t.Errorf("failed read should have no out-regions: %+v", out)
	}
	// open: input region is the NUL-terminated path
	f.p.AS.Write(addr, append([]byte("/dev/zero"), 0)) //nolint:errcheck
	in = ModelOf(SysOpen).In(f.k, f.p, Args{addr})
	if len(in) != 1 || in[0].Len != 9 {
		t.Errorf("open in-regions = %+v", in)
	}
}

func TestLSeekFStatDup(t *testing.T) {
	f := newFixture(t)
	f.k.AddFile("/d/f", []byte("0123456789"))
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, append([]byte("/d/f"), 0)) //nolint:errcheck
	fd := uint64(f.sys(SysOpen, addr, 0).Ret)

	// lseek: SET, CUR, END and errors
	if r := f.sys(SysLSeek, fd, 4, SeekSet); r.Ret != 4 {
		t.Errorf("lseek set = %d", r.Ret)
	}
	if r := f.sys(SysLSeek, fd, 2, SeekCur); r.Ret != 6 {
		t.Errorf("lseek cur = %d", r.Ret)
	}
	if r := f.sys(SysLSeek, fd, ^uint64(2), SeekEnd); r.Ret != 7 { // -3 from end
		t.Errorf("lseek end = %d", r.Ret)
	}
	if r := f.sys(SysLSeek, fd, ^uint64(98), SeekSet); r.Ret != -EINVAL { // -99
		t.Errorf("negative seek = %d", r.Ret)
	}
	if r := f.sys(SysLSeek, fd, 0, 9); r.Ret != -EINVAL {
		t.Errorf("bad whence = %d", r.Ret)
	}
	// read continues from the seeked offset
	dst := addr + pg
	f.sys(SysLSeek, fd, 8, SeekSet)
	if r := f.sys(SysRead, fd, dst, 4); r.Ret != 2 {
		t.Errorf("read after seek = %d", r.Ret)
	}

	// fstat: size and device kind land in guest memory
	if r := f.sys(SysFStat, fd, dst); r.Ret != 0 {
		t.Fatalf("fstat = %d", r.Ret)
	}
	if size, _ := f.p.AS.LoadU64(dst); size != 10 {
		t.Errorf("fstat size = %d", size)
	}
	if r := f.sys(SysFStat, 99, dst); r.Ret != -EBADF {
		t.Errorf("fstat bad fd = %d", r.Ret)
	}

	// dup: independent offset from the duplicate onwards
	f.sys(SysLSeek, fd, 0, SeekSet)
	dup := uint64(f.sys(SysDup, fd).Ret)
	if dup == fd || dup < 3 {
		t.Fatalf("dup = %d", dup)
	}
	f.sys(SysLSeek, dup, 5, SeekSet)
	if r := f.sys(SysRead, fd, dst, 1); r.Ret != 1 {
		t.Fatal("read original failed")
	}
	b, _ := f.p.AS.LoadByte(dst)
	if b != '0' {
		t.Errorf("original fd offset disturbed by dup seek: %q", b)
	}
}

func TestClassTaxonomy(t *testing.T) {
	wantGlobal := []Sys{SysExit, SysWrite, SysRead, SysOpen, SysClose, SysLSeek, SysFStat, SysDup}
	for _, nr := range wantGlobal {
		if ModelOf(nr).Class != ClassGlobal {
			t.Errorf("%v should be globally effectful", nr)
		}
	}
	wantLocal := []Sys{SysBrk, SysMmap, SysMunmap, SysMprotect, SysSigaction, SysKill}
	for _, nr := range wantLocal {
		if ModelOf(nr).Class != ClassLocal {
			t.Errorf("%v should be process-locally effectful", nr)
		}
	}
	wantNonEff := []Sys{SysGetPID, SysGetTime, SysGetRandom}
	for _, nr := range wantNonEff {
		if ModelOf(nr).Class != ClassNonEffectful {
			t.Errorf("%v should be non-effectful", nr)
		}
	}
}

func TestForkStateClonesFDs(t *testing.T) {
	f := newFixture(t)
	f.k.AddFile("/data/x", []byte("0123456789"))
	addr := f.bufAddr(t)
	f.p.AS.Write(addr, append([]byte("/data/x"), 0)) //nolint:errcheck
	fd := uint64(f.sys(SysOpen, addr, 0).Ret)
	f.sys(SysRead, fd, addr+pg, 4) // offset now 4

	child := f.l.Fork(f.p, "child")
	// child reads continue from the cloned offset
	info := Info{Nr: SysRead, Args: [5]uint64{fd, addr + pg, 2}}
	r := f.k.Execute(child, f.env, info)
	if r.Ret != 2 {
		t.Fatalf("child read = %d", r.Ret)
	}
	got := make([]byte, 2)
	child.AS.Read(addr+pg, got) //nolint:errcheck
	if string(got) != "45" {
		t.Errorf("child read %q from cloned offset", got)
	}
	// ...without disturbing the parent's offset
	if r := f.sys(SysRead, fd, addr+pg, 2); r.Ret != 2 {
		t.Fatal("parent read failed")
	}
	f.p.AS.Read(addr+pg, got) //nolint:errcheck
	if string(got) != "45" {
		t.Errorf("parent offset disturbed: %q", got)
	}
}

func TestLoaderLayout(t *testing.T) {
	k := NewKernel(pg, 1)
	l := NewLoader(k, pg, 1)
	b := asm.NewBuilder("layout")
	b.Words("w", 1, 2, 3)
	b.Space("bss", 100)
	b.Halt()
	prog := b.MustBuild()
	p, err := l.Exec(prog)
	if err != nil {
		t.Fatal(err)
	}
	// data image visible
	if v, _ := p.AS.LoadU64(prog.Symbols["w"]); v != 1 {
		t.Errorf("data word = %d", v)
	}
	// BSS mapped and zero
	if v, f := p.AS.LoadU64(prog.Symbols["bss"]); f != nil || v != 0 {
		t.Errorf("bss = %d, %v", v, f)
	}
	// stack usable at SP
	sp := p.Regs.X[14]
	if _, f := p.AS.StoreU64(sp-8, 1); f != nil {
		t.Errorf("stack write at sp-8 faulted: %v", f)
	}
	// brk starts past the data
	if end := asm.DataBase + uint64(len(prog.Data)) + prog.BSS; p.AS.CurrentBrk() < end {
		t.Errorf("brk %#x below data end %#x", p.AS.CurrentBrk(), end)
	}
	// distinct IDs for a second process
	p2, _ := l.Exec(prog)
	if p2.PID == p.PID || p2.ASID == p.ASID {
		t.Error("loader reused pid/asid")
	}
}

func TestReapReleasesMemory(t *testing.T) {
	k := NewKernel(pg, 1)
	l := NewLoader(k, pg, 1)
	b := asm.NewBuilder("reap")
	b.Halt()
	p, _ := l.Exec(b.MustBuild())
	child := l.Fork(p, "c")
	if p.AS.MapCountOf(asm.StackTop-pg) != 2 {
		t.Fatal("fork did not share")
	}
	l.Reap(child)
	if p.AS.MapCountOf(asm.StackTop-pg) != 1 {
		t.Error("reap did not release the child's frames")
	}
	if k.Stdout(child.PID) != nil {
		t.Error("reap did not unregister kernel state")
	}
}

// TestLoaderNeverHandsOutASIDZero: the cache model tags a line with its
// ASID and keeps tag 0 for an empty way, so the loader's first ASID is 1
// and every later one, exec'd or forked, is larger.
func TestLoaderNeverHandsOutASIDZero(t *testing.T) {
	f := newFixture(t)
	asids := []uint64{f.p.ASID, f.l.Fork(f.p, "child").ASID}
	for i, a := range asids {
		if a != uint64(i)+1 {
			t.Errorf("ASID %d handed out is %d, want %d", i, a, i+1)
		}
	}
}
