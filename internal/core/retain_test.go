package core

import (
	"sync"
	"testing"

	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

// TestRetainedRechecksBesideItsRun: every segment a run retires, retained
// and re-checked on a goroutine of its own while the run goes on, verifies —
// with the paper's one checker, with three diverse replicas, and with
// soft-dirty tracking. Under -race (make race-short) this is the check that a
// retained segment shares nothing the run writes.
func TestRetainedRechecksBesideItsRun(t *testing.T) {
	one := smallSliceConfig()
	three := one
	three.Checkers, three.Diversity = 3, []string{"quantum", "skid2x"}
	soft := one
	soft.Tracking = TrackSoftDirty
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"main+1", one}, {"main+3 quantum,skid2x", three}, {"soft-dirty", soft}} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			retained := 0
			st, err := NewRuntime(newTestEngine(7), tc.cfg).RunRetaining(testProgram(60_000), func(stat SegmentStat, retain func() *Retained) {
				s := retain()
				retained++
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer s.Release()
					if d, landed := s.Recheck(Turn{}, nil); d != nil || !landed {
						t.Errorf("segment %d re-checked as %v (landed %v), want verified", stat.Index, d, landed)
					}
				}()
			})
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if st.Detected != nil || retained != len(st.Segments) || retained < 3 {
				t.Errorf("run detected %v; %d segments retained of %d", st.Detected, retained, len(st.Segments))
			}
		})
	}
}

// TestFlipAtASyscallLandsBeforeItsReplay: a flip planned where replica 0
// stands on a recorded syscall lands before the syscall is replayed, as in a
// timed run whose replica, woken from waiting for the main to record the
// call, begins a turn there; the record's check then sees the flipped
// syscall number.
func TestFlipAtASyscallLandsBeforeItsReplay(t *testing.T) {
	var last *Retained
	if _, err := NewRuntime(newTestEngine(7), smallSliceConfig()).RunRetaining(testProgram(60_000), func(_ SegmentStat, retain func() *Retained) {
		if s := retain(); s.seg.EndIsExit {
			last = s
		} else {
			s.Release()
		}
	}); err != nil {
		t.Fatal(err)
	}
	defer last.Release()

	// Where the checker first stops at a syscall: a fork of the start
	// checkpoint stepped on no machine, its nondeterministic reads skipped.
	c := last.seg.StartCP.p.Fork(1, 1, "probe", 1)
	defer c.AS.Release()
	e := sim.New(nil, nil, nil)
	task := e.NewTask(c, nil, 0)
	for stop := e.Run(task, sim.DefaultQuantum); stop.Reason != proc.StopSyscall; stop = e.Run(task, sim.DefaultQuantum) {
		switch stop.Reason {
		case proc.StopBudget:
		case proc.StopNondet:
			sim.FinishNondet(c, 0)
		default:
			t.Fatalf("the probe stopped with %v before any syscall", stop.Reason)
		}
	}
	at := Turn{Instrs: c.Instrs, PC: c.PC}

	if d, landed := last.Recheck(at, nil); d != nil || !landed {
		t.Fatalf("unflipped: %v (landed %v), want verified", d, landed)
	}
	d, landed := last.Recheck(at, func(p *proc.Process) { p.Regs.X[0] ^= 1 << 4 })
	if !landed || d == nil || d.Kind != ErrSyscallMismatch {
		t.Errorf("flipped at the syscall %+v: %v (landed %v), want a syscall mismatch", at, d, landed)
	}
}
