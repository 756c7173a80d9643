// Package inject drives the fault-injection campaign of §5.6: for each
// segment, first profile the checker's clean execution time t, then run
// several trials in which a random register bit is flipped at a uniform
// random point in [0, 1.1t) of the checker's execution, and classify
// Parallaft's response. The campaign is one timed run (Campaign.Run). Each
// retired segment's trials re-check it on no machine, from a copy of its
// start checkpoint to its verdict, with the flip landing where the timed
// run's replica 0 stood when its dispatch reached the trial's instant.
package inject

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
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
	// NewEngine builds the engine of the campaign's one timed run.
	NewEngine func() *sim.Engine
	Program   *asm.Program
	Config    core.Config
	// TrialsPerSegment is 5 in the paper.
	TrialsPerSegment int
	Seed             int64
	// Parallel bounds the simulations running at once, the timed run and
	// the retired segments' trials, to this many workers (<= 0 = one per
	// CPU, 1 = serial), and the retired segments held for their trials to
	// as many. Every trial derives its own rng seed from (Seed, segment,
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

// Run executes the campaign as one deterministic timed run. Its
// Config.ReplicaHook notes where replica 0 stands as each of its dispatches
// begins, with the elapsed time the hook is handed there. As a segment
// retires, its trials are drawn (draw), and the segment's replay inputs are
// retained (core.Runtime.RunRetaining) for them. A trial re-checks the
// retained segment on no machine (core.Retained.Recheck), flipping its target
// in replica 0 where the first dispatch whose elapsed time reaches its
// instant began. Trials seed their rngs from their (segment, trial)
// coordinates, so the report is independent of scheduling and of Parallel.
// Config.EnableRecovery is refused: a recovered detection continues the run
// past the segment's verdict.
func (c *Campaign) Run() (*Report, error) {
	rep, _, err := c.run()
	return rep, err
}

// run is Run, returning as well the book its run and trials shared.
func (c *Campaign) run() (*Report, *book, error) {
	if c.Config.EnableRecovery {
		return nil, nil, errors.New("inject: a campaign cannot run with Config.EnableRecovery")
	}
	b := &book{}
	pr := campaign.NewProgressWith(c.Progress, "inject "+c.Program.Name, 0, c.Telemetry)
	others := make(chan struct{}, campaign.Workers(c.Parallel)-1)
	var workers sync.WaitGroup
	turns := map[int][]turn{} // by segment: replica 0's dispatches
	cfg := c.Config
	cfg.ReplicaHook = func(seg, rep int, checker *proc.Process, elapsedNs float64) {
		if rep == 0 {
			turns[seg] = append(turns[seg], turn{elapsedNs, core.Turn{Instrs: checker.Instrs, PC: checker.PC}})
		}
		if c.Config.ReplicaHook != nil {
			c.Config.ReplicaHook(seg, rep, checker, elapsedNs)
		}
	}
	rt := core.NewRuntime(c.NewEngine(), cfg)
	b.alive(0, 1)
	prof, err := rt.RunRetaining(c.Program, func(stat core.SegmentStat, retain func() *core.Retained) {
		planned := c.draw(b, pr, stat, turns[stat.Index])
		delete(turns, stat.Index)
		if len(planned) == 0 {
			return
		}
		s := retain()
		b.alive(1, 0)
		select {
		case others <- struct{}{}:
			workers.Add(1)
			go func() { defer workers.Done(); b.runTrials(pr, s, planned); <-others }()
		default: // the run waits for the segment's trials
			b.alive(0, -1)
			b.runTrials(pr, s, planned)
			b.alive(0, 1)
		}
	})
	b.alive(0, -1)
	rt.Release()
	workers.Wait()
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("inject: timed run: %w", err)
	case prof.Detected != nil:
		return nil, nil, fmt.Errorf("inject: the timed run detected a phantom error: %v", prof.Detected)
	case b.err != nil:
		return nil, nil, b.err
	}
	rep := &Report{Benchmark: c.Program.Name, Trials: b.rows}
	for _, tr := range rep.Trials {
		rep.Counts[tr.Outcome]++
	}
	return rep, b, nil
}

// turn is one dispatch of a segment's replica 0 in the timed run: the
// elapsed time Config.ReplicaHook was handed, and where the checker stood.
type turn struct {
	elapsedNs float64
	at        core.Turn
}

// planned is a drawn trial that lands: the trial, its row, and where its
// flip lands.
type planned struct {
	Trial
	row int
	at  core.Turn
}

// book is what the timed run and the trials share.
type book struct {
	mu   sync.Mutex // guards everything below
	rows []Trial    // every trial, in report order
	err  error      // a trial's flip did not land
	// Alive now and at most, read only by tests: retained segments whose
	// trials are not done, and simulations running (the timed run while it
	// steps, and each trial).
	retained, sims, peakRetained, peakSims int
}

// alive counts retained segments and simulations more alive.
func (b *book) alive(retained, sims int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retained += retained
	b.sims += sims
	b.peakRetained = max(b.peakRetained, b.retained)
	b.peakSims = max(b.peakSims, b.sims)
}

// draw makes the trials of a segment the timed run retired, which fixes its
// clean checker duration: per trial up to maxDraws (instant, target) draws. A
// draw lands iff its instant is at most the elapsed time of replica 0's last
// dispatch in the segment, so the first that does is planned at the first
// dispatch whose elapsed time reaches it, and a trial none of whose draws
// lands is a failed row, with no simulation.
func (c *Campaign) draw(b *book, pr *campaign.Progress, stat core.SegmentStat, turns []turn) []planned {
	var out []planned
	for trial := 0; stat.CheckerNs > 0 && trial < c.trials(); trial++ {
		rng := rand.New(rand.NewSource(campaign.DeriveSeed(c.Seed, "inject", c.Program.Name,
			fmt.Sprintf("seg%d", stat.Index), fmt.Sprintf("trial%d", trial))))
		tr := Trial{Segment: stat.Index, Outcome: OutcomeFailed}
		landed := false
		for attempt := 0; attempt < maxDraws && !landed; attempt++ {
			tr.AtNs, tr.Target = rng.Float64()*1.1*stat.CheckerNs, randTarget(rng)
			landed = len(turns) > 0 && tr.AtNs <= turns[len(turns)-1].elapsedNs
		}
		pr.Grow(1)
		if !landed {
			pr.Step(1)
		}
		b.mu.Lock()
		if landed {
			i := sort.Search(len(turns), func(i int) bool { return turns[i].elapsedNs >= tr.AtNs })
			out = append(out, planned{tr, len(b.rows), turns[i].at})
		}
		b.rows = append(b.rows, tr)
		b.mu.Unlock()
	}
	return out
}

// runTrials runs a retained segment's planned trials, each booked in its
// row, and releases the segment. A contained panic is a failed row, with the
// panic as its detail; a flip that does not land is the campaign's error.
func (b *book) runTrials(pr *campaign.Progress, s *core.Retained, trials []planned) {
	defer func() { s.Release(); b.alive(-1, 0) }()
	for _, p := range trials {
		b.alive(0, 1)
		res := campaign.Contain(pr, p.row, func() (Trial, error) {
			d, landed := s.Recheck(p.at, func(checker *proc.Process) {
				checker.FlipRegisterBit(p.Target.Class, p.Target.Index, p.Target.Lane, p.Target.Bit)
			})
			if !landed {
				return p.Trial, fmt.Errorf("inject: segment %d: the flip at %v ns did not land in its replay", p.Segment, p.AtNs)
			}
			return classify(p.Trial, d), nil
		})
		b.alive(0, -1)
		var perr *campaign.PanicError
		b.mu.Lock()
		switch {
		case errors.As(res.Err, &perr):
			b.rows[p.row].Detail = perr.Error()
		case res.Err != nil:
			b.err = cmp.Or(b.err, res.Err)
		default:
			b.rows[p.row] = res.Value
		}
		b.mu.Unlock()
	}
}

// classify judges a trial by the detection its segment raised.
func classify(tr Trial, d *core.DetectedError) Trial {
	switch {
	case d == nil:
		tr.Outcome = OutcomeBenign
		return tr
	case d.IsException():
		tr.Outcome = OutcomeException
	case d.IsTimeout():
		tr.Outcome = OutcomeTimeout
	default:
		tr.Outcome = OutcomeDetected
	}
	tr.Detail = d.Detail
	return tr
}
