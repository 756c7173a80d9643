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
	// NewEngine builds the engine of the profile run, whose snapshots every
	// trial starts from.
	NewEngine func() *sim.Engine
	Program   *asm.Program
	Config    core.Config
	// TrialsPerSegment is 5 in the paper.
	TrialsPerSegment int
	Seed             int64
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

// maxDraws bounds the draws of one trial when an injection fails to land.
const maxDraws = 6

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

// Run executes the campaign: one clean profiling run, then trials. Up to its
// flip a trial is the clean run, so it skips that prefix: the profiling run
// is the spine (core.Runtime.RunSpine), which snapshots the run just before
// each segment's checker is first dispatched, and every trial and redraw of
// the segment restores that snapshot, or where the spine kept none, the
// latest one before. A segment's trials start once the spine has verified
// it, which fixes its clean checker duration, so they overlap the rest of
// the spine, which holds one of the Parallel workers while it runs.
//
// Each trial seeds its own rng from its (segment, trial) coordinates rather
// than drawing from a shared stream, which makes the report independent of
// both scheduling and the Parallel setting; trials are collected in
// (segment, trial) order so the report is also byte-stable.
func (c *Campaign) Run() (*Report, error) {
	var (
		prof     *core.RunStats
		spineErr error
		segments []int // each trial's segment, in submission order
	)
	pr := campaign.NewProgressWith(c.Progress, "inject "+c.Program.Name, 0, c.Telemetry)
	results := campaign.Stream(c.Parallel, pr, func(submit func(func() (ran, error))) {
		bases := map[int]*core.Snapshot{} // of the segments not yet verified
		var latest *core.Snapshot
		prof, spineErr = core.NewRuntime(c.NewEngine(), c.Config).RunSpine(c.Program,
			func(seg int, s *core.Snapshot) { bases[seg], latest = s, s },
			func(stat core.SegmentStat) {
				base := bases[stat.Index]
				delete(bases, stat.Index)
				if base == nil { // replica 0 never ran, so no trial can land
					base = latest
				}
				for trial := 0; stat.CheckerNs > 0 && trial < c.trials(); trial++ {
					segments = append(segments, stat.Index)
					pr.Grow(1)
					submit(func() (ran, error) { return c.trial(base, stat.Index, trial, stat.CheckerNs), nil })
				}
			})
	})
	if spineErr != nil {
		return nil, fmt.Errorf("inject: profile run: %w", spineErr)
	}
	if prof.Detected != nil {
		return nil, fmt.Errorf("inject: profile run detected a phantom error: %v", prof.Detected)
	}

	rep := &Report{Benchmark: c.Program.Name}
	for i, res := range results {
		tr := res.Value.Trial
		switch {
		case res.Err != nil:
			// A panicking simulation surfaces as a failed trial row rather
			// than killing the campaign.
			tr = Trial{Segment: segments[i], Outcome: OutcomeFailed, Detail: res.Err.Error()}
		case tr.Outcome == OutcomeBenign && (string(res.Value.stdout) != string(prof.Stdout) || res.Value.exitCode != prof.ExitCode):
			// Should be unreachable: the fault was in the checker, so the
			// main's output cannot change. Treated as benign-with-note.
			tr.Detail = "output differs without detection"
		}
		rep.Trials = append(rep.Trials, tr)
		rep.Counts[tr.Outcome]++
	}
	return rep, nil
}

// ran is a trial with what the report still compares with the profiling
// run's once that has finished: a benign trial's output.
type ran struct {
	Trial
	stdout   []byte
	exitCode int64
}

// trial runs one trial of segment: draws an injection instant and a target
// bit, restores base, and redraws while the flip does not land.
func (c *Campaign) trial(base *core.Snapshot, segment, trial int, cleanNs float64) ran {
	seed := campaign.DeriveSeed(c.Seed, "inject", c.Program.Name,
		fmt.Sprintf("seg%d", segment), fmt.Sprintf("trial%d", trial))
	rng := rand.New(rand.NewSource(seed))
	var r ran
	for attempt := 0; attempt < maxDraws; attempt++ {
		at, target := rng.Float64()*1.1*cleanNs, randTarget(rng)
		var landed bool
		rt := base.Restore(trialHook(segment, at, target, &landed))
		stats, err := rt.Resume()
		r = judge(Trial{Segment: segment, AtNs: at, Target: target}, stats, err, landed)
		rt.Release()
		if r.Outcome != OutcomeFailed {
			break
		}
	}
	return r
}

// trialHook is a trial's Config.ReplicaHook: it flips the target bit in
// replica 0 of the segment once the checker has run atNs, and reports
// whether it did through landed.
func trialHook(segment int, atNs float64, target Target, landed *bool) func(int, int, *proc.Process, float64) {
	return func(segIdx, rep int, checker *proc.Process, elapsed float64) {
		if *landed || rep != 0 || segIdx != segment || elapsed < atNs {
			return
		}
		checker.FlipRegisterBit(target.Class, target.Index, target.Lane, target.Bit)
		*landed = true
	}
}

// judge classifies a trial's run.
func judge(tr Trial, stats *core.RunStats, err error, landed bool) ran {
	tr.Outcome = OutcomeFailed
	if err != nil {
		tr.Detail = err.Error()
		return ran{Trial: tr}
	}
	if !landed {
		return ran{Trial: tr} // checker finished before the injection instant; redraw
	}

	switch {
	case stats.Detected == nil:
		tr.Outcome = OutcomeBenign
		return ran{Trial: tr, stdout: stats.Stdout, exitCode: stats.ExitCode}
	case stats.Detected.IsException():
		tr.Outcome = OutcomeException
	case stats.Detected.IsTimeout():
		tr.Outcome = OutcomeTimeout
	default:
		tr.Outcome = OutcomeDetected
	}
	tr.Detail = stats.Detected.Detail
	return ran{Trial: tr}
}
