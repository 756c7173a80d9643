// Package campaign is the parallel experiment engine behind the evaluation
// harness. The paper's evaluation (§5) is a large campaign of independent
// deterministic simulations — suite workloads × modes, the slicing-period
// sweep, per-segment fault-injection trials — and every run is isolated in
// its own engine, so they fan out across cores.
//
// The engine's contract is that parallel execution is invisible in the
// results:
//
//   - results are collected in submission order, so rendered tables are
//     byte-identical to a serial run;
//   - nothing in the pool draws randomness; jobs that need it derive an
//     independent seed from their identity via DeriveSeed, never a shared
//     rand.Rand;
//   - a panicking job surfaces as an error Result (with its stack), not as
//     a crashed campaign;
//   - concurrency is bounded by the worker count, and workers pull jobs
//     from a shared counter so an expensive job never blocks the queue.
package campaign

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Result is one job's outcome. Run returns results indexed by submission
// order regardless of completion order.
type Result[T any] struct {
	Index int
	Value T
	Err   error
}

// PanicError wraps a panic recovered from a job so a single exploding
// simulation run cannot take down the whole campaign.
type PanicError struct {
	Value any
	Stack []byte
}

// Error satisfies the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign: job panicked: %v\n%s", e.Value, e.Stack)
}

// Workers resolves a worker-count request: n >= 1 is used as given,
// anything else (0, negative) means one worker per CPU.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// Run executes n independent jobs on up to workers goroutines (Workers
// semantics; 1 runs everything inline on the caller's goroutine — the
// serial path) and returns their results in submission order.
func Run[T any](workers, n int, fn func(i int) (T, error)) []Result[T] {
	return RunProgress(workers, n, nil, fn)
}

// RunProgress is Run with a progress/ETA reporter (nil = silent).
func RunProgress[T any](workers, n int, pr *Progress, fn func(i int) (T, error)) []Result[T] {
	out := make([]Result[T], n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			out[i] = Contain(pr, i, func() (T, error) { return fn(i) })
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(Workers(workers), n); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work() // the caller is one of the workers
	wg.Wait()
	return out
}

// Contain runs job i, a panic in it becoming a *PanicError result, and
// counts it done on pr.
func Contain[T any](pr *Progress, i int, job func() (T, error)) (res Result[T]) {
	res.Index = i
	defer func() {
		if v := recover(); v != nil {
			perr := &PanicError{Value: v, Stack: debug.Stack()}
			res.Err = perr
			pr.notePanic(perr)
		}
		pr.Step(1)
	}()
	res.Value, res.Err = job()
	return
}

// FirstErr returns the lowest-index error among the results, matching what
// a serial loop that stops at the first failure would have reported.
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
