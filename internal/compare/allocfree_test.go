// The race detector instruments every memory access with allocations of its
// own, so the zero-alloc pins only build without it.
//go:build !race

package compare

import (
	"runtime"
	"testing"

	"parallaft/internal/mem"
)

// TestComparatorRunAllocFree pins the steady-state comparison path at zero
// allocations per boundary. The runtime holds one Comparator for the whole
// protected run; after the first comparison has sized its scratch (union
// runs, discovery buffers, job list), every later clean boundary — the
// overwhelmingly common case — must reuse it outright. Both shapes below
// stay on the serial path (one P makes the pool one worker) and a nil
// mismatch, so the measured trace is discovery + identity/byte compares +
// accounting, nothing else.
func TestComparatorRunAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pages = 64
	main := mem.NewAddressSpace(pg)
	mustMap(t, main, 0x10000, pages*pg)
	for i := uint64(0); i < pages; i++ {
		mustStore(t, main, 0x10000+i*pg, i^0xabc)
	}
	ref := main.Fork()
	chk := main.Fork()
	chk.ClearSoftDirty()

	cases := []struct {
		name string
		req  Request
	}{
		// All frames COW-shared: the identity fast path handles every page.
		{"identity", Request{Ref: ref, Chk: chk, Discovery: FullMemory,
			CheckerMode: mem.DirtySoft, Seed: seed}},
		// Checker rewrote its pages with identical values: frames differ,
		// so the bytes decide every page.
		{"equal_bytes", func() Request {
			chk2 := main.Fork()
			chk2.ClearSoftDirty()
			for i := uint64(0); i < pages; i++ {
				mustStore(t, chk2, 0x10000+i*pg, i^0xabc)
			}
			return Request{Ref: ref, Chk: chk2, Discovery: FullMemory,
				CheckerMode: mem.DirtySoft, Seed: seed}
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Comparator
			warm := c.Run(tc.req) // sizes the scratch
			if warm.Mismatch != nil {
				t.Fatalf("unexpected mismatch: %+v", warm.Mismatch)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if res := c.Run(tc.req); res.Mismatch != nil {
					t.Fatalf("unexpected mismatch: %+v", res.Mismatch)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state compare allocates %.1f objects per boundary, want 0", allocs)
			}
		})
	}
}

// TestVoteOneReplicaAllocFree pins the paper's path at zero allocations per
// boundary: every segment end is a vote, and a single checker's vote is the
// pairwise comparison. The register callbacks are built once, as the
// runtime builds them once per run, and the Voter's arena is warm.
func TestVoteOneReplicaAllocFree(t *testing.T) {
	s := buildVoteScenario(t, 1, nil)
	req := s.request()
	req.RegsAgreeRef = func(int) bool { return true }
	req.RegsAgreePair = func(int, int) bool { return true }
	var v Voter
	if res := v.Vote(req); res.Verdict != VerdictUnanimous {
		t.Fatalf("warm-up verdict = %v, want unanimous", res.Verdict)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if res := v.Vote(req); res.Verdict != VerdictUnanimous {
			t.Fatalf("verdict = %v, want unanimous", res.Verdict)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state one-replica vote allocates %.1f objects per boundary, want 0", allocs)
	}
}
