// Package inject drives the fault-injection campaign of §5.6: for each
// segment, first profile the checker's clean execution time t, then run
// several trials in which a random register bit is flipped at a uniform
// random point in [0, 1.1t) of the checker's execution, and classify
// Parallaft's response. A trial runs from its flip to its segment's
// verdict: it is forked from a second pass of the profile run at the
// dispatch where the flip lands, and stepped only as far as that segment
// needs (Campaign.Run).
package inject

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"

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
	// NewEngine builds the engine of each of the campaign's two passes:
	// the profile run, and the run every trial is forked from.
	NewEngine func() *sim.Engine
	Program   *asm.Program
	Config    core.Config
	// TrialsPerSegment is 5 in the paper.
	TrialsPerSegment int
	Seed             int64
	// Parallel bounds the simulations running at once, the second pass
	// and the trials' forks, to this many workers (<= 0 = one per CPU, 1 =
	// serial). Every trial derives its own rng seed from (Seed, segment,
	// trial), so the report is identical for any worker count.
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

// Run executes the campaign as two passes of one deterministic run. The
// profile run draws a segment's trials as it retires (draw). The second pass
// then forks each trial, focused on its segment, at the first replica-0
// dispatch whose elapsed time reaches its instant (core.Runtime.Fork, Focus):
// the flip lands on the fork's first dispatch and the trial ends at the
// segment's verdict. Trials seed their rngs from their (segment, trial)
// coordinates, so the report is independent of scheduling and of Parallel.
// Config.EnableRecovery is refused: a recovered detection continues the run
// past the segment's verdict.
func (c *Campaign) Run() (*Report, error) {
	rep, _, err := c.run()
	return rep, err
}

// run is Run, returning as well the plan its two passes shared.
func (c *Campaign) run() (*Report, *plan, error) {
	if c.Config.EnableRecovery {
		return nil, nil, errors.New("inject: a campaign cannot run with Config.EnableRecovery")
	}
	p := &plan{drawn: map[int][]fork{}}
	pr := campaign.NewProgressWith(c.Progress, "inject "+c.Program.Name, 0, c.Telemetry)
	lastNs := map[int]float64{} // by segment
	rt := core.NewRuntime(c.NewEngine(), c.Config)
	prof, err := rt.RunForking(c.Program,
		func(seg int, elapsedNs float64) bool { lastNs[seg] = elapsedNs; return true },
		func(stat core.SegmentStat) { c.draw(p, pr, stat, lastNs) })
	rt.Release() // its frames serve the forking run
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("inject: profile run: %w", err)
	case prof.Detected != nil:
		return nil, nil, fmt.Errorf("inject: profile run detected a phantom error: %v", prof.Detected)
	}
	switch err := c.forkTrials(p, pr); {
	case err != nil:
		return nil, nil, fmt.Errorf("inject: forking run: %w", err)
	case p.err != nil:
		return nil, nil, p.err
	case p.left > 0:
		return nil, nil, fmt.Errorf("inject: %d planned flips found no dispatch to land on", p.left)
	}
	rep := &Report{Benchmark: c.Program.Name, Trials: p.rows}
	for _, tr := range rep.Trials {
		rep.Counts[tr.Outcome]++
	}
	return rep, p, nil
}

// forkTrials is the second pass. A fork runs on a goroutine of its own while
// fewer than Parallel-1 do, and otherwise on the pass's, which waits for it,
// so no more than Parallel simulations run at once. It returns once every
// fork has run.
func (c *Campaign) forkTrials(p *plan, pr *campaign.Progress) error {
	others := make(chan struct{}, campaign.Workers(c.Parallel)-1)
	var forks sync.WaitGroup
	defer forks.Wait()
	src := core.NewRuntime(c.NewEngine(), c.Config)
	defer src.Release()
	_, err := src.RunForking(c.Program, func(seg int, elapsedNs float64) bool {
		for _, f := range p.due(seg, elapsedNs) {
			p.forked(1)
			var landed bool
			rt := src.Fork(trialHook(seg, f.AtNs, f.Target, &landed))
			rt.Focus(seg)
			run := func() {
				p.done(f.row, campaign.Contain(pr, f.row, func() (Trial, error) { return runTrial(rt, f.Trial, &landed) }))
			}
			select {
			case others <- struct{}{}:
				forks.Add(1)
				go func() { defer forks.Done(); run(); <-others }()
			default:
				run()
			}
		}
		return p.left > 0
	}, nil)
	return err
}

// fork is a planned trial: its landing draw and its row.
type fork struct {
	Trial
	row int
}

// plan is what the two passes of a campaign share.
type plan struct {
	rows  []Trial        // every trial, in report order
	drawn map[int][]fork // by segment: the forks not yet taken, by instant
	left  int            // forks not yet taken, over all segments
	mu    sync.Mutex     // guards what forks write: rows, err, forks and peak
	err   error          // a fork's flip did not land
	forks int            // alive; with peak, read only by tests
	peak  int            // the most forks alive at once
}

// forked counts n forks more alive.
func (p *plan) forked(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forks += n
	p.peak = max(p.peak, p.forks)
}

// draw makes the trials of a segment the profile run retired, which fixes
// its clean checker duration: per trial up to maxDraws (instant, target)
// draws. A draw lands iff its instant is at most the segment's last
// replica-0 elapsed time, so the first that does is planned as a fork, and a
// trial none of whose draws lands is a failed row, with no simulation.
func (c *Campaign) draw(p *plan, pr *campaign.Progress, stat core.SegmentStat, lastNs map[int]float64) {
	last, dispatched := lastNs[stat.Index]
	for trial := 0; stat.CheckerNs > 0 && trial < c.trials(); trial++ {
		rng := rand.New(rand.NewSource(campaign.DeriveSeed(c.Seed, "inject", c.Program.Name,
			fmt.Sprintf("seg%d", stat.Index), fmt.Sprintf("trial%d", trial))))
		tr := Trial{Segment: stat.Index, Outcome: OutcomeFailed}
		landed := false
		for attempt := 0; attempt < maxDraws && !landed; attempt++ {
			tr.AtNs, tr.Target = rng.Float64()*1.1*stat.CheckerNs, randTarget(rng)
			landed = dispatched && tr.AtNs <= last
		}
		pr.Grow(1)
		if landed {
			p.drawn[stat.Index] = append(p.drawn[stat.Index], fork{tr, len(p.rows)})
			p.left++
		} else {
			pr.Step(1)
		}
		p.rows = append(p.rows, tr)
	}
	slices.SortStableFunc(p.drawn[stat.Index], func(a, b fork) int { return cmp.Compare(a.AtNs, b.AtNs) })
}

// due takes segment's planned forks whose instant elapsedNs reaches.
func (p *plan) due(segment int, elapsedNs float64) []fork {
	q, n := p.drawn[segment], 0
	for n < len(q) && q[n].AtNs <= elapsedNs {
		n++
	}
	p.drawn[segment], p.left = q[n:], p.left-n
	return q[:n]
}

// done books a fork's trial in its row; a contained panic is a failed row,
// with the panic as its detail.
func (p *plan) done(row int, res campaign.Result[Trial]) {
	var perr *campaign.PanicError
	p.forked(-1)
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case errors.As(res.Err, &perr):
		p.rows[row].Detail = perr.Error()
	case res.Err != nil:
		p.err = cmp.Or(p.err, res.Err)
	default:
		p.rows[row] = res.Value
	}
}

// runTrial resumes a trial's fork to its segment's verdict and classifies
// it. A flip that does not land is the campaign's error, not a trial's.
func runTrial(rt *core.Runtime, tr Trial, landed *bool) (Trial, error) {
	stats, err := rt.Resume()
	rt.Release()
	if err == nil && !*landed {
		return tr, fmt.Errorf("inject: segment %d: the flip at %v ns did not land in its fork", tr.Segment, tr.AtNs)
	}
	return judge(tr, stats, err), nil
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
func judge(tr Trial, stats *core.RunStats, err error) Trial {
	tr.Outcome = OutcomeFailed
	if err != nil {
		tr.Detail = err.Error()
		return tr
	}
	switch {
	case stats.Detected == nil:
		tr.Outcome = OutcomeBenign
		return tr
	case stats.Detected.IsException():
		tr.Outcome = OutcomeException
	case stats.Detected.IsTimeout():
		tr.Outcome = OutcomeTimeout
	default:
		tr.Outcome = OutcomeDetected
	}
	tr.Detail = stats.Detected.Detail
	return tr
}
