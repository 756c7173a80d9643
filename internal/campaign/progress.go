package campaign

import (
	"fmt"
	"io"
	"sync"
	"time"

	"parallaft/internal/telemetry"
)

// Progress reports campaign completion and an ETA as plain lines, one per
// finished job, so long fan-outs (a full fig. 10 injection campaign runs
// hundreds of simulations) are observable. A nil *Progress is silent, so
// call sites never need nil checks.
//
// With a telemetry registry attached, the job counts live in the
// paft_campaign_* gauges — the printed lines are rendered from the gauges,
// not a private counter, so anything scraping the registry sees exactly
// the numbers the console shows.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	start time.Time

	total  *telemetry.Gauge
	done   *telemetry.Gauge
	panics *telemetry.Counter
	noReg  bool // no registry: fall back to the private fields below
	totalN int
	doneN  int

	flight    *telemetry.Recorder
	flightReg *telemetry.Registry
}

// NewProgressWith returns a reporter writing progress lines to w, with a
// telemetry registry backing the job counts. It returns a live reporter
// when either sink is present; with both nil there is nothing to report to
// and the reporter is silent (nil).
// Campaigns run sequentially, so a new reporter resets the done gauge.
func NewProgressWith(w io.Writer, label string, total int, reg *telemetry.Registry) *Progress {
	if w == nil && reg == nil {
		return nil
	}
	p := &Progress{w: w, label: label, totalN: total, start: time.Now(), noReg: reg == nil}
	if reg != nil {
		p.total = reg.Gauge("paft_campaign_jobs",
			"jobs in the campaign currently running")
		p.done = reg.Gauge("paft_campaign_jobs_done",
			"jobs of the current campaign that have finished")
		p.panics = reg.Counter("paft_campaign_panics_total",
			"jobs that panicked and were contained as error results")
		p.total.Set(float64(total))
		p.done.Set(0)
	}
	return p
}

// Grow adds n jobs to the campaign's total.
func (p *Progress) Grow(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.totalN += n
	p.total.Add(float64(n))
}

// Step records n finished jobs and emits a progress line with an ETA
// extrapolated from the mean per-job wall time so far.
func (p *Progress) Step(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var done, total int
	if p.noReg {
		p.doneN += n
		done, total = p.doneN, p.totalN
	} else {
		p.done.Add(float64(n))
		done, total = int(p.done.Value()), int(p.total.Value())
	}
	if p.w == nil {
		return
	}
	elapsed := time.Since(p.start)
	eta := "?"
	if done > 0 && done <= total {
		rem := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		eta = rem.Round(time.Second).String()
	}
	fmt.Fprintf(p.w, "%s: %d/%d done, elapsed %s, eta %s\n",
		p.label, done, total, elapsed.Round(time.Second), eta)
}

// SetFlight attaches an event recorder: every contained worker panic is
// noted in its black-box ring and immediately dumped (with the registry
// snapshot) to the recorder's directory. A panic is exactly the "something
// abnormal happened" moment the flight recorder exists for — the dump
// preserves what the process saw right before the job exploded, even though
// the campaign itself carries on. Nil-safe on all sides.
func (p *Progress) SetFlight(f *telemetry.Recorder, reg *telemetry.Registry) {
	if p == nil || f == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flight = f
	p.flightReg = reg
}

// notePanic counts a contained job panic and, with a recorder attached,
// dumps the black box (no-op without either sink).
func (p *Progress) notePanic(e *PanicError) {
	if p == nil {
		return
	}
	p.mu.Lock()
	flight, reg, label := p.flight, p.flightReg, p.label
	p.mu.Unlock()
	p.panics.Inc()
	if flight == nil {
		return
	}
	reason := fmt.Sprintf("campaign %q: contained worker panic: %v", label, e.Value)
	flight.Note("worker-panic", reason)
	// Best-effort: a failing dump must not break panic containment.
	flight.DumpToDir("campaign-panic", reason, reg)
}
