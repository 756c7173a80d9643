package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCollectsInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		results := Run(workers, 20, func(i int) (int, error) {
			// Finish in roughly reverse order to stress ordered collection.
			time.Sleep(time.Duration(20-i) * time.Millisecond / 4)
			return i * i, nil
		})
		if len(results) != 20 {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, r := range results {
			if r.Index != i || r.Err != nil || r.Value != i*i {
				t.Fatalf("workers=%d: result %d = %+v", workers, i, r)
			}
		}
	}
}

func TestSerialAndParallelIdentical(t *testing.T) {
	job := func(i int) (string, error) {
		if i%7 == 3 {
			return "", fmt.Errorf("job %d failed", i)
		}
		return fmt.Sprintf("out-%d-%d", i, DeriveSeed(42, "job", fmt.Sprint(i))), nil
	}
	serial := Run(1, 30, job)
	parallel := Run(8, 30, job)
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Value != p.Value || (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("result %d differs: %+v vs %+v", i, s, p)
		}
		if s.Err != nil && s.Err.Error() != p.Err.Error() {
			t.Fatalf("error %d differs: %v vs %v", i, s.Err, p.Err)
		}
	}
}

func TestPanicBecomesErrorRow(t *testing.T) {
	results := Run(4, 10, func(i int) (int, error) {
		if i == 5 {
			panic("simulated engine explosion")
		}
		return i, nil
	})
	for i, r := range results {
		if i == 5 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("panicking job returned %v, want PanicError", r.Err)
			}
			if !strings.Contains(pe.Error(), "simulated engine explosion") {
				t.Errorf("panic message lost: %v", pe)
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Errorf("healthy job %d poisoned: %+v", i, r)
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	Run(workers, 24, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if got := peak.Load(); got > workers {
		t.Errorf("concurrency peaked at %d, bound %d", got, workers)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(4) != 4 || Workers(1) != 1 {
		t.Error("explicit worker counts not respected")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("defaulted worker count < 1")
	}
}

func TestFirstErr(t *testing.T) {
	results := Run(2, 6, func(i int) (int, error) {
		if i >= 4 {
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if err := FirstErr(results); err == nil || err.Error() != "boom 4" {
		t.Errorf("FirstErr = %v, want boom 4", err)
	}
	ok := Run(2, 3, func(i int) (int, error) { return i, nil })
	if err := FirstErr(ok); err != nil {
		t.Errorf("FirstErr on clean results = %v", err)
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	a := DeriveSeed(12345, "429.mcf", "parallaft", "trial0")
	b := DeriveSeed(12345, "429.mcf", "parallaft", "trial0")
	if a != b {
		t.Fatal("DeriveSeed not deterministic")
	}
	if a == DeriveSeed(12345, "429.mcf", "parallaft", "trial1") {
		t.Error("trial index does not change the seed")
	}
	if a == DeriveSeed(12346, "429.mcf", "parallaft", "trial0") {
		t.Error("base seed does not change the seed")
	}
	// Length prefixing: boundary shifts must not collide.
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Error("label boundaries ambiguous")
	}
	if DeriveSeed(7) == 0 {
		t.Error("zero seed escaped the guard")
	}
}

func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	pr := NewProgressWith(&buf, "suite", 3, nil)
	results := RunProgress(2, 3, pr, func(i int) (int, error) { return i, nil })
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 3 {
		t.Errorf("want 3 progress lines, got:\n%s", out)
	}
	if !strings.Contains(out, "suite: 3/3 done") {
		t.Errorf("final progress line missing:\n%s", out)
	}
	// nil reporter and nil writer are no-ops
	var nilPr *Progress
	nilPr.Step(1)
	if NewProgressWith(nil, "x", 1, nil) != nil {
		t.Error("nil writer should yield nil reporter")
	}
}

func TestZeroJobs(t *testing.T) {
	results := Run(4, 0, func(i int) (int, error) { return i, nil })
	if len(results) != 0 {
		t.Errorf("zero jobs returned %d results", len(results))
	}
}
