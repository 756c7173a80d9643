// The race detector instruments every memory access with allocations of its
// own, so the zero-alloc pins only build without it.
//go:build !race

package proc

import (
	"testing"

	"parallaft/internal/telemetry/profile"
)

// TestRunAllocFree pins the interpreter dispatch loop at zero allocations
// per Run, under both cost policies, once the lazy structures (predecode,
// timing tables, TLB, cache state) are warm. The loop mixes ALU work, loads,
// stores and a taken branch, so every hot dispatch path is on the measured
// trace; a fresh allocation sneaking into Run, LoadU64/StoreU64 or the cache
// model fails this immediately.
func TestRunAllocFree(t *testing.T) {
	for _, policy := range []CostPolicy{Functional, Timed} {
		p, env := newProc(t, dispatchKernel())
		p.Policy = policy

		// Warm: first Run predecodes, builds the cost tables and faults the
		// arena's pages in.
		if s := p.Run(env, 50_000); s.Reason != StopBudget {
			t.Fatalf("policy %d: warm-up stop = %v, want budget", policy, s)
		}

		allocs := testing.AllocsPerRun(10, func() {
			if s := p.Run(env, 20_000); s.Reason != StopBudget {
				t.Fatalf("policy %d: stop = %v, want budget", policy, s)
			}
		})
		if allocs != 0 {
			t.Errorf("policy %d: steady-state Run allocates %.1f objects per call, want 0", policy, allocs)
		}
	}

	// The sampler half is Timed only: a Functional process has no clock to
	// sample against and refuses a sampler.
	p, env := newProc(t, dispatchKernel())
	p.Run(env, 50_000)

	// With a profiler sampler attached and firing (short period so every
	// measured Run takes samples), the dispatch loop must stay at zero
	// allocations: map buckets for already-seen PCs are reused, and the
	// threshold bookkeeping is all stack floats.
	rec := profile.NewRecorder(1_000)
	p.SetSampler(rec.Actor("spin"), rec.PeriodCycles())
	if s := p.Run(env, 50_000); s.Reason != StopBudget { // warm the sample map
		t.Fatalf("sampler warm-up stop = %v, want budget", s)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if s := p.Run(env, 20_000); s.Reason != StopBudget {
			t.Fatalf("stop = %v, want budget", s)
		}
	})
	if allocs != 0 {
		t.Errorf("sampling Run allocates %.1f objects per call, want 0", allocs)
	}
	if rec.TotalSamples() == 0 {
		t.Fatal("sampler never fired; the pin measured nothing")
	}

	// Detaching restores the no-sampler fast path (one +Inf compare).
	p.SetSampler(nil, 0)
	allocs = testing.AllocsPerRun(10, func() {
		if s := p.Run(env, 20_000); s.Reason != StopBudget {
			t.Fatalf("stop = %v, want budget", s)
		}
	})
	if allocs != 0 {
		t.Errorf("detached-sampler Run allocates %.1f objects per call, want 0", allocs)
	}
}
