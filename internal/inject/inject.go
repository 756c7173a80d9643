// Package inject drives the fault-injection campaign of §5.6: for each
// segment, first profile the checker's clean execution time t, then run
// several trials in which a random register bit is flipped at a uniform
// random point in [0, 1.1t) of the checker's execution, and classify
// Parallaft's response.
package inject

import (
	"fmt"
	"io"
	"math/rand"

	"parallaft/internal/asm"
	"parallaft/internal/campaign"
	"parallaft/internal/core"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
)

// Outcome classifies one injection trial (§5.6).
type Outcome uint8

// Outcomes.
const (
	// OutcomeDetected: Parallaft flagged the fault (excluding exceptions
	// and timeouts, which are separately accounted special cases).
	OutcomeDetected Outcome = iota
	// OutcomeException: the fault caused an exception in the checker.
	OutcomeException
	// OutcomeTimeout: the checker overran the instruction budget.
	OutcomeTimeout
	// OutcomeBenign: no observable effect; the program finished with
	// correct output.
	OutcomeBenign
	// OutcomeFailed: the injection did not land (the checker finished
	// before the chosen instant); the trial is discarded and redrawn.
	OutcomeFailed
	NumOutcomes
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeDetected:
		return "detected"
	case OutcomeException:
		return "exception"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeBenign:
		return "benign"
	case OutcomeFailed:
		return "failed"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Target is the register bit chosen for a flip.
type Target struct {
	Class proc.RegClass
	Index int
	Lane  int
	Bit   uint
}

// String renders the target.
func (t Target) String() string {
	if t.Class == proc.VRClass {
		return fmt.Sprintf("v%d[%d] bit %d", t.Index, t.Lane, t.Bit)
	}
	return fmt.Sprintf("%s%d bit %d", map[proc.RegClass]string{
		proc.GPRClass: "x", proc.FPRClass: "f",
	}[t.Class], t.Index, t.Bit)
}

// Trial is one injection attempt.
type Trial struct {
	Segment int
	AtNs    float64
	Target  Target
	Outcome Outcome
	Detail  string
}

// Report aggregates a campaign.
type Report struct {
	Benchmark string
	Trials    []Trial
	Counts    [NumOutcomes]int
}

// Rate returns the fraction of landed trials with the given outcome.
func (r *Report) Rate(o Outcome) float64 {
	landed := 0
	for _, t := range r.Trials {
		if t.Outcome != OutcomeFailed {
			landed++
		}
	}
	if landed == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(landed)
}

// DetectionComplete reports the paper's headline property: every non-benign
// fault was detected (by mismatch, exception, or timeout).
func (r *Report) DetectionComplete() bool {
	for _, t := range r.Trials {
		if t.Outcome == OutcomeFailed {
			continue
		}
		if t.Outcome != OutcomeBenign && t.Outcome != OutcomeDetected &&
			t.Outcome != OutcomeException && t.Outcome != OutcomeTimeout {
			return false
		}
	}
	return true
}

// Campaign runs the §5.6 protocol for one program.
type Campaign struct {
	// NewEngine builds a fresh, identically seeded engine per run so every
	// trial replays the identical execution.
	NewEngine func() *sim.Engine
	Program   *asm.Program
	Config    core.Config
	// TrialsPerSegment is 5 in the paper.
	TrialsPerSegment int
	// MaxRedraws bounds retries when an injection fails to land.
	MaxRedraws int
	Seed       int64
	// Parallel fans the trials out over this many workers (<= 0 = one per
	// CPU, 1 = serial). Every trial derives its own rng seed from (Seed,
	// segment, trial), so the report is identical for any worker count.
	Parallel int
	// Progress, when set, receives per-trial progress/ETA lines.
	Progress io.Writer
	// Telemetry, when set, backs the progress gauges and counts contained
	// trial panics (paft_campaign_*).
	Telemetry *telemetry.Registry
}

func (c *Campaign) trials() int {
	if c.TrialsPerSegment > 0 {
		return c.TrialsPerSegment
	}
	return 5
}

func (c *Campaign) redraws() int {
	if c.MaxRedraws > 0 {
		return c.MaxRedraws
	}
	return 6
}

func randTarget(rng *rand.Rand) Target {
	switch rng.Intn(3) {
	case 0:
		return Target{Class: proc.GPRClass, Index: rng.Intn(16), Bit: uint(rng.Intn(64))}
	case 1:
		return Target{Class: proc.FPRClass, Index: rng.Intn(8), Bit: uint(rng.Intn(64))}
	default:
		return Target{Class: proc.VRClass, Index: rng.Intn(4), Lane: rng.Intn(4), Bit: uint(rng.Intn(64))}
	}
}

// Run executes the campaign: one clean profiling run, then trials. The
// trials — the hottest loop of the §5.6 campaign, every one a full
// simulation — are independent, so they fan out across workers. Each trial
// seeds its own rng from its (segment, trial) coordinates rather than
// drawing from a shared stream, which makes the report independent of both
// scheduling and the Parallel setting; trials are collected in (segment,
// trial) order so the report is also byte-stable.
func (c *Campaign) Run() (*Report, error) {
	// Profile run: per-segment checker durations, reference output.
	profEngine := c.NewEngine()
	profRT := core.NewRuntime(profEngine, c.Config)
	prof, err := profRT.Run(c.Program)
	if err != nil {
		return nil, fmt.Errorf("inject: profile run: %w", err)
	}
	if prof.Detected != nil {
		return nil, fmt.Errorf("inject: profile run detected a phantom error: %v", prof.Detected)
	}

	type slot struct {
		segment int
		trial   int
		cleanNs float64 // the segment's clean checker duration t
	}
	var slots []slot
	for _, segStat := range prof.Segments {
		if segStat.CheckerNs <= 0 {
			continue
		}
		for trial := 0; trial < c.trials(); trial++ {
			slots = append(slots, slot{segStat.Index, trial, segStat.CheckerNs})
		}
	}

	pr := campaign.NewProgressWith(c.Progress, "inject "+c.Program.Name, len(slots), c.Telemetry)
	results := campaign.RunProgress(c.Parallel, len(slots), pr, func(i int) (Trial, error) {
		s := slots[i]
		seed := campaign.DeriveSeed(c.Seed, "inject", c.Program.Name,
			fmt.Sprintf("seg%d", s.segment), fmt.Sprintf("trial%d", s.trial))
		rng := rand.New(rand.NewSource(seed))
		var tr Trial
		for attempt := 0; attempt < c.redraws(); attempt++ {
			at := rng.Float64() * 1.1 * s.cleanNs
			tr = c.runOne(s.segment, at, randTarget(rng), prof)
			if tr.Outcome != OutcomeFailed {
				break
			}
		}
		return tr, nil
	})

	rep := &Report{Benchmark: c.Program.Name}
	for i, res := range results {
		tr := res.Value
		if res.Err != nil {
			// A panicking simulation surfaces as a failed trial row rather
			// than killing the campaign.
			tr = Trial{Segment: slots[i].segment, Outcome: OutcomeFailed, Detail: res.Err.Error()}
		}
		rep.Trials = append(rep.Trials, tr)
		rep.Counts[tr.Outcome]++
	}
	return rep, nil
}

// runOne executes a single trial.
func (c *Campaign) runOne(segment int, atNs float64, target Target, prof *core.RunStats) Trial {
	tr := Trial{Segment: segment, AtNs: atNs, Target: target, Outcome: OutcomeFailed}

	landed := false
	cfg := c.Config
	cfg.ReplicaHook = func(segIdx, rep int, checker *proc.Process, elapsed float64) {
		if landed || rep != 0 || segIdx != segment || elapsed < atNs {
			return
		}
		checker.FlipRegisterBit(target.Class, target.Index, target.Lane, target.Bit)
		landed = true
	}

	rt := core.NewRuntime(c.NewEngine(), cfg)
	stats, err := rt.Run(c.Program)
	if err != nil {
		tr.Outcome = OutcomeFailed
		tr.Detail = err.Error()
		return tr
	}
	if !landed {
		return tr // checker finished before the injection instant; redraw
	}

	switch {
	case stats.Detected == nil:
		if string(stats.Stdout) == string(prof.Stdout) && stats.ExitCode == prof.ExitCode {
			tr.Outcome = OutcomeBenign
		} else {
			// Should be unreachable: the fault was in the checker, so the
			// main's output cannot change. Treated as benign-with-note.
			tr.Outcome = OutcomeBenign
			tr.Detail = "output differs without detection"
		}
	case stats.Detected.IsException():
		tr.Outcome = OutcomeException
		tr.Detail = stats.Detected.Detail
	case stats.Detected.IsTimeout():
		tr.Outcome = OutcomeTimeout
		tr.Detail = stats.Detected.Detail
	default:
		tr.Outcome = OutcomeDetected
		tr.Detail = stats.Detected.Detail
	}
	return tr
}
