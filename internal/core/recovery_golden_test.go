package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/proc"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
)

// fbits renders a simulated figure with its exact bits, so that a golden
// holding it pins the float, not a rounding of it.
func fbits(f float64) string { return fmt.Sprintf("%.6g/%016x", f, math.Float64bits(f)) }

// dumpRecoveryRun renders what a recovery run books: wall time and energy,
// the recovery and vote counters, the segment rows, the overhead ledger by
// class, the decision trace and the lifecycle spans.
func dumpRecoveryRun(st *RunStats, led profile.Summary, rec *telemetry.Recorder, spans *telemetry.SpanRecorder) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "wall=%s energy=%s main_wall=%s runtime=%s\n",
		fbits(st.AllWallNs), fbits(st.EnergyJ), fbits(st.MainWallNs), fbits(st.RuntimeNs))
	fmt.Fprintf(&sb, "arbitrations=%d recovered=%d rollbacks=%d reexecuted=%d unrecoverable=%v\n",
		st.Arbitrations, st.RecoveredCheckerFaults, st.Rollbacks, st.ReexecutedEffects, st.UnrecoverableFault)
	fmt.Fprintf(&sb, "vote unanimous=%d absorbed=%d outvoted=%d forward=%d noquorum=%d\n",
		st.VoteUnanimous, st.VoteAbsorbed, st.VoteOutvotedReplicas, st.ForwardRepairs, st.VoteNoQuorum)
	fmt.Fprintf(&sb, "slices=%d checkpoints=%d checker big=%s little=%s\n",
		st.Slices, st.Checkpoints, fbits(st.CheckerBigNs), fbits(st.CheckerLittleNs))
	for _, s := range st.Segments {
		fmt.Fprintf(&sb, "seg %d: main=%s checker=%s big=%s little=%s events=%d dirty=%d\n",
			s.Index, fbits(s.MainNs), fbits(s.CheckerNs), fbits(s.BigNs), fbits(s.LittleNs), s.Events, s.DirtyPages)
	}
	for _, c := range led.Classes {
		fmt.Fprintf(&sb, "ledger %s: ns=%s j=%s charges=%d\n", c.Activity, fbits(c.SimNs), fbits(c.Joules), c.Charges)
	}
	for _, r := range rec.Records() {
		if r.Kind == "" {
			continue // stage spans carry host time
		}
		fmt.Fprintf(&sb, "trace %s seg=%d at=%s %s\n", r.Kind, r.Segment, fbits(r.SimNs), r.Detail)
	}
	for _, s := range spans.Spans() {
		fmt.Fprintf(&sb, "span %d %s: fork=%s seal=%s start=%s done=%s compare=%s end=%s events=%d dirty=%d big=%v\n",
			s.Segment, s.Outcome, fbits(s.ForkNs), fbits(s.SealNs), fbits(s.CheckerStartNs), fbits(s.CheckerDoneNs),
			fbits(s.CompareNs), fbits(s.EndNs), s.Events, s.DirtyPages, s.OnBig)
	}
	if st.Detected != nil {
		fmt.Fprintf(&sb, "detected: %v\n", st.Detected)
	}
	fmt.Fprintf(&sb, "exit=%d stdout=%q\n", st.ExitCode, st.Stdout)
	return sb.String()
}

// TestGoldenRecovery pins the simulated books of runs with EnableRecovery:
// a checker fault absorbed after arbitration (compare mismatch and
// mid-replay exception), a main fault rolled back, a permanent fault that
// exhausts the budgets, a RAFT run whose referee is voted without
// CompareStates, and an NMR no-quorum handed to arbitration. Every
// referee's work lands in these figures, so a change to how a segment is
// re-checked must keep them byte-identical.
func TestGoldenRecovery(t *testing.T) {
	flipChecker := func(seg int, f func(*proc.Process)) func(*Config) {
		return func(cfg *Config) {
			hook := onceInSegment(seg, f)
			cfg.ReplicaHook = func(seg, rep int, c *proc.Process, ns float64) {
				if rep == 0 {
					hook(seg, c, ns)
				}
			}
		}
	}
	checkerFlip := flipChecker(1, func(c *proc.Process) { c.FlipRegisterBit(proc.GPRClass, 1, 0, 40) })
	cases := []struct {
		name  string
		seed  int64
		prog  *asm.Program
		tweak func(*Config)
	}{
		{"checker flip", 13, loopProgram(120_000), checkerFlip},
		{"checker flip, soft-dirty", 7, loopProgram(120_000), func(cfg *Config) {
			checkerFlip(cfg)
			cfg.Tracking = TrackSoftDirty
		}},
		{"wild pointer", 13, loopProgram(120_000),
			flipChecker(1, func(c *proc.Process) { c.Regs.X[4] = 0xdead_0000 })},
		{"main flip", 13, loopProgram(120_000), func(cfg *Config) {
			fired := false
			cfg.MainHook = func(m *proc.Process, _ float64) {
				if !fired && m.Instrs >= 200_000 {
					m.FlipRegisterBit(proc.GPRClass, 1, 0, 33)
					fired = true
				}
			}
		}},
		{"main flip across a write", 7, bracketProgram(60_000, 100_000), func(cfg *Config) {
			tail := bracketProgram(60_000, 100_000).Labels["tail"]
			fired := false
			cfg.MainHook = func(m *proc.Process, _ float64) {
				if !fired && m.PC >= tail {
					m.FlipRegisterBit(proc.GPRClass, 7, 0, 3)
					fired = true
				}
			}
		}},
		{"permanent fault", 13, loopProgram(120_000), func(cfg *Config) {
			cfg.MainHook = func(m *proc.Process, _ float64) {
				if m.Instrs > 100_000 {
					m.Regs.X[1] ^= 1 << 7
				}
			}
		}},
		{"raft, checker fault after the seal", 13, loopProgram(120_000), func(cfg *Config) {
			*cfg = RAFTConfig()
			cfg.EnableRecovery = true
			fired := false
			cfg.ReplicaHook = func(_, _ int, c *proc.Process, _ float64) {
				if !fired && c.Instrs >= 1_140_000 {
					c.Regs.X[4] = 0xdead_0000
					fired = true
				}
			}
		}},
		{"nmr no quorum", 13, loopProgram(120_000), func(cfg *Config) {
			cfg.Checkers = 3
			fired := [3]bool{}
			cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
				if seg != 1 || rep == 2 || fired[rep] {
					return
				}
				c.FlipRegisterBit(proc.GPRClass, 1, 0, uint(40+rep))
				fired[rep] = true
			}
		}},
	}
	var sb strings.Builder
	for _, tc := range cases {
		cfg := recoveryConfig()
		tc.tweak(&cfg)
		cfg.Trace = telemetry.NewRecorder(0)
		cfg.Spans = telemetry.NewSpanRecorder(0)
		e := newTestEngine(tc.seed)
		st, err := NewRuntime(e, cfg).Run(tc.prog)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&sb, "== %s (seed %d)\n", tc.name, tc.seed)
		sb.WriteString(dumpRecoveryRun(st, profile.Summarize(e.M, st.AllWallNs), cfg.Trace, cfg.Spans))
	}
	goldenCompare(t, "golden_recovery.txt", sb.String())
}
