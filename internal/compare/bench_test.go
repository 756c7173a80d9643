package compare

import (
	"testing"

	"parallaft/internal/mem"
)

// BenchmarkComparatorRun is the compare layer on dirty_sweep's shape: a
// segment in which the main and the checker each store once into every page
// of a 512-page (8 MiB) array, so every page of the dirty set is mapped on
// both sides by private frames with equal contents and no hash memo. Both
// sides are rewritten before each round, outside the timer, as the next
// segment would. It reports the comparison's cost per dirty page; run it
// with -cpu 1,2 to see the worker pool engage.
func BenchmarkComparatorRun(b *testing.B) {
	const pages = 512
	main := mem.NewAddressSpace(pg)
	if err := main.Map(0x10000, pages*pg, mem.ProtRW, "bench"); err != nil {
		b.Fatal(err)
	}
	base := main.Fork()
	chk := main.Fork()
	rewrite := func(round uint64) {
		for i := uint64(0); i < pages; i++ {
			addr := 0x10000 + i*pg + round%(pg/8)*8
			if _, f := main.StoreU64(addr, round^i); f != nil {
				b.Fatal(f)
			}
			if _, f := chk.StoreU64(addr, round^i); f != nil {
				b.Fatal(f)
			}
		}
	}
	req := Request{Base: base, Ref: main, Chk: chk, Discovery: FrameDiff,
		CheckerMode: mem.DirtyMapCount, Seed: seed}
	var c Comparator
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		rewrite(uint64(n))
		b.StartTimer()
		if res := c.Run(req); res.Mismatch != nil || res.DirtyPages != pages {
			b.Fatalf("dirty pages %d, mismatch %+v; want %d, none", res.DirtyPages, res.Mismatch, pages)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}
