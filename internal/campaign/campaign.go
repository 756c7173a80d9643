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
// semantics; 1 runs them one after another, in order — the serial path) and
// returns their results in submission order.
func Run[T any](workers, n int, fn func(i int) (T, error)) []Result[T] {
	return RunProgress(workers, n, nil, fn)
}

// RunProgress is Run with a progress/ETA reporter (nil = silent).
func RunProgress[T any](workers, n int, pr *Progress, fn func(i int) (T, error)) []Result[T] {
	return Stream(workers, pr, func(submit func(job func() (T, error))) {
		for i := 0; i < n; i++ {
			submit(func() (T, error) { return fn(i) })
		}
	})
}

// Stream is RunProgress for jobs that appear while it runs: feed, on a
// goroutine of its own that holds one of the workers' slots until it
// returns, hands jobs to submit, and a free worker runs each as soon as it
// is submitted and drops it once run. With one worker the jobs run in order
// after feed. Results come back in submission order; a panic in feed is
// re-raised on the caller's goroutine.
func Stream[T any](workers int, pr *Progress, feed func(submit func(job func() (T, error)))) []Result[T] {
	var (
		mu        sync.Mutex
		more      = sync.NewCond(&mu)
		jobs      []func() (T, error)
		out       []Result[T]
		next      int
		fed       bool
		feedPanic any
	)
	slots := make(chan struct{}, Workers(workers))
	slots <- struct{}{} // feed's
	go func() {
		defer func() {
			feedPanic = recover()
			mu.Lock()
			fed = true
			mu.Unlock()
			more.Broadcast()
			<-slots
		}()
		feed(func(job func() (T, error)) {
			mu.Lock()
			jobs = append(jobs, job)
			out = append(out, Result[T]{})
			mu.Unlock()
			more.Signal()
		})
	}()
	var wg sync.WaitGroup
	for w := 0; w < cap(slots); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for next == len(jobs) && !fed {
					more.Wait()
				}
				if next == len(jobs) {
					mu.Unlock()
					return
				}
				i, job := next, jobs[next]
				jobs[next] = nil
				next++
				mu.Unlock()
				slots <- struct{}{}
				res := runOne(i, job)
				<-slots
				mu.Lock()
				out[i] = res
				mu.Unlock()
				if perr, isPanic := res.Err.(*PanicError); isPanic {
					pr.notePanic(perr)
				}
				pr.Step(1)
			}
		}()
	}
	wg.Wait()
	if feedPanic != nil {
		panic(feedPanic)
	}
	return out
}

// runOne executes job i with panic containment.
func runOne[T any](i int, job func() (T, error)) (res Result[T]) {
	res.Index = i
	defer func() {
		if v := recover(); v != nil {
			res.Err = &PanicError{Value: v, Stack: debug.Stack()}
		}
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
