package sim

import (
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/oskernel"
)

// chase program: DRAM-bound pointer walk
func chaseProg(name string) *asm.Program {
	b := asm.NewBuilder(name)
	vals := make([]uint64, 512*1024) // 4 MiB of records, 8B each: next offsets
	n := len(vals)
	step := 524287 // coprime stride -> pseudo-random walk
	cur := 0
	for i := 0; i < n; i++ {
		next := (cur + step) % n
		vals[cur] = uint64(next * 8)
		cur = next
	}
	b.Words("arena", vals...)
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, 60_000)
	b.Addr(4, "arena")
	b.Mov(10, 4)
	b.Label("loop")
	b.Ld(5, 10, 0)
	b.Add(10, 4, 5)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

func TestContentionProbe(t *testing.T) {
	e := newTestEngine(t)
	p1, _ := e.L.Exec(chaseProg("a"))
	t1 := e.NewTask(p1, e.M.BigCores()[0], 0)
	// run alone for a while
	for i := 0; i < 20; i++ {
		e.Run(t1, 4096)
	}
	soloRate := t1.dramRate
	solo := e.Contention(t1)

	p2, _ := e.L.Exec(chaseProg("b"))
	t2 := e.NewTask(p2, e.M.LittleCores()[0], t1.Clock)
	for i := 0; i < 40; i++ {
		e.Run(t2, 4096)
	}
	withOther := e.Contention(t1)
	t.Logf("solo rate=%.4f/ns contention solo=%.2f with-little-chaser=%.2f otherRate=%.4f",
		soloRate, solo, withOther, t2.dramRate)
}
