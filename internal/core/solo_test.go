package core

import (
	"strings"
	"testing"
	"time"

	"parallaft/internal/machine"
	"parallaft/internal/mem"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
)

// latchHost keeps the last divergence its engine raised and charges nothing.
type latchHost struct{ d *DetectedError }

func (h *latchHost) charge(machine.Activity, float64) {}
func (h *latchHost) reached()                         {}
func (h *latchHost) diverged(d *DetectedError)        { h.d = d }

// TestFaultWithNoRecordedEventReadsAlikeSealedOrNot: a checker fault with no
// recorded event left is worded the same whether the main has sealed the
// segment yet or not, so a timed trial and its re-check of the sealed
// record agree on Detail; a fault that meets a different event keeps its
// own wording.
func TestFaultWithNoRecordedEventReadsAlikeSealedOrNot(t *testing.T) {
	fault := func(sealed bool, events ...packet.Event) *DetectedError {
		c := proc.New(1, 1, "chk", nil, mem.NewAddressSpace(16384), 1)
		defer c.AS.Release()
		c.PC = 15
		h := &latchHost{}
		seg := &Segment{Index: 2, sealed: sealed}
		seg.Log.Events = events
		en := replayEngine{host: h, cfg: &Config{}, seg: seg, Checker: c}
		en.replayFault(proc.SIGSEGV)
		if h.d == nil || h.d.Kind != ErrCheckerException || h.d.Sig != proc.SIGSEGV {
			t.Fatalf("sealed=%v: fault raised %v, want a SIGSEGV checker exception", sealed, h.d)
		}
		return h.d
	}
	open, sealed := fault(false), fault(true)
	if open.Detail != sealed.Detail || !strings.HasSuffix(open.Detail, "with no recorded event") {
		t.Errorf("Detail unsealed %q, sealed %q; want both \"… with no recorded event\"", open.Detail, sealed.Detail)
	}
	if d := fault(true, packet.Event{Kind: packet.EvSyscall}); !strings.HasSuffix(d.Detail, "diverges from record") {
		t.Errorf("fault against a recorded syscall reads %q, want \"… diverges from record\"", d.Detail)
	}
}

// soloReplica forks replica 0 of s onto an engine of its own, on m's first
// little core, or on no machine when m is nil, ready for replayAlone.
func soloReplica(s *Retained, m *machine.Machine) *replica {
	start, rr := s.seg.StartCP.p, s.replicas[0]
	k := oskernel.NewKernel(start.AS.PageSize(), 0)
	e := sim.New(m, k, nil)
	c := start.Fork(rr.pid, rr.asid, start.Name, rr.pmuSeed)
	c.AS.ClearSoftDirty()
	c.InstrLimit = rr.instrLimit
	k.Register(c.PID)
	var core *machine.Core
	if m != nil {
		core = m.LittleCores()[0]
	}
	return &replica{replayEngine: replayEngine{cfg: &s.cfg, e: e, seg: &s.seg, Checker: c,
		Task: e.NewTask(c, core, 0), guest: machine.ActGuestChecker, skid: rr.skid}}
}

// retainFirstAndLast runs testProgram and keeps its second segment and its
// last, which replays the program's getpid, write and exit.
func retainFirstAndLast(t *testing.T) (mid, last *Retained) {
	t.Helper()
	_, err := NewRuntime(newTestEngine(7), smallSliceConfig()).RunRetaining(testProgram(60_000), func(stat SegmentStat, retain func() *Retained) {
		switch s := retain(); {
		case s.seg.EndIsExit:
			last = s
		case stat.Index == 1:
			mid = s
		default:
			s.Release()
		}
	})
	if err != nil || mid == nil || last == nil {
		t.Fatalf("run: %v; retained segment 1 %v, last %v", err, mid != nil, last != nil)
	}
	return mid, last
}

// TestReplayAloneTimedMatchesUntimed: charging never steers a replay. A
// replica replayed alone on a machine's core, whose dispatches and tracer
// work are booked, ends exactly as the same replica on no machine: the
// same verdict, instruction count, PC and registers — for a clean segment,
// a flipped register (benign to the replay, and a wild pointer that
// faults) and a segment whose syscalls are replayed.
func TestReplayAloneTimedMatchesUntimed(t *testing.T) {
	mid, last := retainFirstAndLast(t)
	defer mid.Release()
	defer last.Release()
	start := Turn{PC: mid.seg.StartCP.p.PC}
	for _, tc := range []struct {
		name string
		s    *Retained
		flip func(*proc.Process)
	}{
		{"clean", mid, nil},
		{"flipped checksum register", mid, func(c *proc.Process) { c.Regs.X[1] ^= 1 << 40 }},
		{"wild pointer", mid, func(c *proc.Process) { c.Regs.X[4] = 0xdead_0000 }},
		{"replayed syscalls", last, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.s == last && len(last.seg.Log.Events) < 3 {
				t.Fatalf("the last segment records %d events, want getpid, write and exit", len(last.seg.Log.Events))
			}
			var (
				rep     [2]*replica
				verdict [2]*DetectedError
			)
			for i, m := range []*machine.Machine{machine.New(machine.AppleM2Like()), nil} {
				rep[i] = soloReplica(tc.s, m)
				defer rep[i].Checker.AS.Release()
				var landed bool
				verdict[i], landed = replayAlone(&rep[i].replayEngine, checkerQuantum(sim.DefaultQuantum, 0), start, tc.flip)
				if !landed {
					t.Fatalf("flip did not land at the first turn")
				}
			}
			if rep[0].Task.Clock == 0 || rep[1].Task.Clock != 0 {
				t.Fatalf("clocks timed %v untimed %v, want only the timed replay to advance", rep[0].Task.Clock, rep[1].Task.Clock)
			}
			timed, untimed := rep[0].Checker, rep[1].Checker
			if (verdict[0] == nil) != (verdict[1] == nil) || verdict[0] != nil && *verdict[0] != *verdict[1] {
				t.Errorf("verdict timed %v, untimed %v", verdict[0], verdict[1])
			}
			if timed.Instrs != untimed.Instrs || timed.PC != untimed.PC || !timed.Regs.Equal(&untimed.Regs) {
				t.Errorf("timed ends at %d instrs pc %d, untimed at %d pc %d (registers equal: %v)",
					timed.Instrs, timed.PC, untimed.Instrs, untimed.PC, timed.Regs.Equal(&untimed.Regs))
			}
			if (tc.flip == nil) != (verdict[1] == nil && untimed.Regs.Equal(&tc.s.seg.EndCP.p.Regs)) {
				t.Errorf("flip %v: verdict %v, registers at the end checkpoint's %v", tc.flip != nil,
					verdict[1], untimed.Regs.Equal(&tc.s.seg.EndCP.p.Regs))
			}
		})
	}
}

// TestReplayAloneCapsTurnsWithoutProgress: a replay whose turns make no
// progress — here, a zero quantum — ends in a timeout verdict after the
// turn cap instead of spinning.
func TestReplayAloneCapsTurnsWithoutProgress(t *testing.T) {
	mid, last := retainFirstAndLast(t)
	defer mid.Release()
	defer last.Release()
	rep := soloReplica(mid, nil)
	defer rep.Checker.AS.Release()
	done := make(chan *DetectedError, 1)
	go func() {
		d, _ := replayAlone(&rep.replayEngine, 0, Turn{}, nil)
		done <- d
	}()
	select {
	case d := <-done:
		if d == nil || d.Kind != ErrCheckerTimeout || !strings.Contains(d.Detail, "no progress") {
			t.Errorf("zero-quantum replay: %v, want a checker timeout for no progress", d)
		}
	case <-time.After(time.Minute):
		t.Fatal("a replay making no progress never returned")
	}
}
