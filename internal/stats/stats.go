// Package stats runs the evaluation sessions (baseline / Parallaft / RAFT)
// over workloads and aggregates the overhead metrics the paper reports:
// performance overhead and its four-way breakdown (§5.2), energy overhead
// (§5.3), normalised memory usage (§5.4), and geometric means across the
// suite.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"

	"parallaft/internal/campaign"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
	"parallaft/internal/workload"
)

// Mode selects how a session executes the programs.
type Mode uint8

// Session modes.
const (
	ModeBaseline Mode = iota
	ModeParallaft
	ModeRAFT
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeParallaft:
		return "parallaft"
	case ModeRAFT:
		return "raft"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// SessionResult aggregates one workload run (all of its input programs,
// executed back to back like SPEC's multiple ref inputs).
type SessionResult struct {
	Mode Mode
	Name string

	WallNs     float64 // end-to-end, including last-checker sync
	MainWallNs float64
	UserNs     float64
	SysNs      float64
	RuntimeNs  float64
	EnergyJ    float64
	AvgPSS     float64 // time-weighted across programs

	Slices           int
	Checkpoints      int
	SegmentsTotal    int
	SegmentsOnBig    int
	COWCopies        uint64
	DirtyPagesHashed uint64
	// Host-side comparison-subsystem shortcuts (diagnostics; not part of
	// the simulated cost model, so absent from all figures and tables).
	IdentitySkips uint64
	HashCacheHits uint64

	CheckerBigNs    float64
	CheckerLittleNs float64

	CheckerLittleInstrs uint64
	CheckerBigInstrs    uint64

	// Ledger is the overhead ledger of a checking session, summed over its
	// programs (zero for a baseline session).
	Ledger profile.Summary

	Detected *core.DetectedError
	Stdout   []byte
}

// BigWorkFraction is the instruction-weighted fraction of checker work done
// on big cores — the metric behind the paper's "checkers do 41.7%, 38.0%,
// and 50.0% of work on big cores" for mcf, milc and lbm (§5.2.1).
func (s *SessionResult) BigWorkFraction() float64 {
	tot := s.CheckerBigInstrs + s.CheckerLittleInstrs
	if tot == 0 {
		return 0
	}
	return float64(s.CheckerBigInstrs) / float64(tot)
}

// Runner executes sessions on a given machine preset.
type Runner struct {
	// MachineCfg builds the platform; fresh per program so cache and
	// energy state never leak across runs.
	MachineCfg func() machine.Config
	// Scale stretches or shrinks workload iteration counts.
	Scale float64
	// Seed drives all simulated nondeterminism (ASLR, PMU skid, ...).
	Seed int64
	// ConfigTweak, when set, adjusts the runtime config (slice-period
	// sweeps, ablations). It may be called from several workers at once,
	// so it must not mutate shared state.
	ConfigTweak func(*core.Config)
	// Parallel is the worker count for fanning independent simulations out
	// across cores (<= 0 = one per CPU, 1 = serial). Every experiment
	// collects results in input order and derives per-run seeds from run
	// identity, so the rendered tables are byte-identical for any value.
	Parallel int
	// Progress, when set, receives coarse progress/ETA lines (one per
	// finished run) — typically os.Stderr, so tables on stdout stay clean.
	Progress io.Writer
	// Telemetry, when set, backs the campaign progress gauges
	// (paft_campaign_*): progress lines are rendered from the gauges, and
	// contained job panics are counted.
	Telemetry *telemetry.Registry
	// Flight, when set, is an event recorder whose black box is dumped
	// whenever a campaign worker panics (the panic is still contained as an
	// error result).
	Flight *telemetry.Recorder
}

// fanOut runs one experiment's n independent jobs over r.Parallel workers,
// reporting to every sink the runner carries (campaign panics dump the
// flight recorder even when no progress writer or registry is attached).
// Values come back in input order; on failure, the lowest-index error is
// returned, as a serial loop stopping at the first failure would report.
func fanOut[T any](r *Runner, label string, n int, fn func(i int) (T, error)) ([]T, error) {
	pr := campaign.NewProgressWith(r.Progress, label, n, r.Telemetry)
	if pr == nil && r.Flight != nil {
		pr = campaign.NewProgressWith(io.Discard, label, n, nil)
	}
	pr.SetFlight(r.Flight, r.Telemetry)
	results := campaign.RunProgress(r.Parallel, n, pr, fn)
	if err := campaign.FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i, res := range results {
		out[i] = res.Value
	}
	return out, nil
}

// NewRunner returns a runner on the Apple-M2-like preset at scale 1.
func NewRunner() *Runner {
	return &Runner{MachineCfg: machine.AppleM2Like, Scale: 1.0, Seed: 12345}
}

// MaxInstr is the runaway-guest guard of every engine NewEngine builds: a
// run that retires more main instructions than this fails instead of
// spinning forever.
const MaxInstr = 4_000_000_000

// NewEngine builds the simulated stack every run executes on: a fresh machine
// from MachineCfg (so cache and energy state never leak across runs), a
// kernel holding the workload input files, and a loader, all seeded by Seed.
// It is the one place outside the benchmark harness that assembles an engine;
// checkd rebuilds its checkers from a packet instead.
func (r *Runner) NewEngine() *sim.Engine {
	m := machine.New(r.MachineCfg())
	k := oskernel.NewKernel(m.PageSize, r.Seed)
	for name, data := range workload.Files() {
		k.AddFile(name, data)
	}
	l := oskernel.NewLoader(k, m.PageSize, r.Seed)
	e := sim.New(m, k, l)
	e.MaxInstr = MaxInstr
	return e
}

// RuntimeConfig is the runtime config of a checking session in mode: the
// RAFT or Parallaft defaults, soft-dirty tracking when the machine slices by
// instructions (the x86_64 mechanism, §4.4), then ConfigTweak.
func (r *Runner) RuntimeConfig(mode Mode) core.Config {
	var cfg core.Config
	if mode == ModeRAFT {
		cfg = core.RAFTConfig()
	} else {
		cfg = core.DefaultConfig()
		if r.MachineCfg().SliceByInstructions {
			cfg.Tracking = core.TrackSoftDirty
		}
	}
	if r.ConfigTweak != nil {
		r.ConfigTweak(&cfg)
	}
	return cfg
}

// RunWorkload executes one workload in the given mode and aggregates across
// its input programs.
func (r *Runner) RunWorkload(w *workload.Workload, mode Mode) (*SessionResult, error) {
	progs := w.Gen(r.Scale)
	agg := &SessionResult{Mode: mode, Name: w.Name}
	var pssWeighted float64

	for _, prog := range progs {
		e := r.NewEngine()
		switch mode {
		case ModeBaseline:
			res, err := e.RunBaseline(prog, e.M.BigCores()[0])
			if err != nil {
				return nil, fmt.Errorf("%s: baseline %s: %w", w.Name, prog.Name, err)
			}
			agg.WallNs += res.WallNs
			agg.MainWallNs += res.WallNs
			agg.UserNs += res.UserNs
			agg.SysNs += res.SysNs
			agg.EnergyJ += res.EnergyJ
			pssWeighted += res.AvgPSS * res.WallNs
			agg.Stdout = append(agg.Stdout, res.Stdout...)

		case ModeParallaft, ModeRAFT:
			rt := core.NewRuntime(e, r.RuntimeConfig(mode))
			stats, err := rt.Run(prog)
			if err != nil {
				return nil, fmt.Errorf("%s: %s %s: %w", w.Name, mode, prog.Name, err)
			}
			agg.WallNs += stats.AllWallNs
			agg.MainWallNs += stats.MainWallNs
			agg.UserNs += stats.MainUserNs
			agg.SysNs += stats.MainSysNs
			agg.RuntimeNs += stats.RuntimeNs
			agg.EnergyJ += stats.EnergyJ
			agg.Slices += stats.Slices
			agg.Checkpoints += stats.Checkpoints
			agg.SegmentsTotal += len(stats.Segments)
			agg.SegmentsOnBig += stats.SegmentsOnBig
			agg.COWCopies += stats.COWCopies
			agg.DirtyPagesHashed += stats.DirtyPagesHashed
			agg.IdentitySkips += stats.IdentitySkips
			agg.HashCacheHits += stats.HashCacheHits
			agg.CheckerBigNs += stats.CheckerBigNs
			agg.CheckerLittleNs += stats.CheckerLittleNs
			agg.CheckerBigInstrs += stats.CheckerBigInstrs
			agg.CheckerLittleInstrs += stats.CheckerLittleInstrs
			pssWeighted += stats.AvgPSSBytes * stats.AllWallNs
			agg.Ledger = addSummaries(agg.Ledger, profile.Summarize(e.M, stats.AllWallNs))
			agg.Stdout = append(agg.Stdout, stats.Stdout...)
			if stats.Detected != nil && agg.Detected == nil {
				agg.Detected = stats.Detected
			}
		}
	}
	if agg.WallNs > 0 {
		agg.AvgPSS = pssWeighted / agg.WallNs
	}
	return agg, nil
}

// Comparison is the per-benchmark triple the figures are built from.
type Comparison struct {
	Name      string
	Baseline  *SessionResult
	Parallaft *SessionResult
	RAFT      *SessionResult
}

// PerfOverhead returns the performance overhead (%) for a mode.
func (c *Comparison) PerfOverhead(mode Mode) float64 {
	s := c.session(mode)
	if s == nil || c.Baseline.WallNs == 0 {
		return 0
	}
	return (s.WallNs - c.Baseline.WallNs) / c.Baseline.WallNs * 100
}

// EnergyOverhead returns the energy overhead (%) for a mode.
func (c *Comparison) EnergyOverhead(mode Mode) float64 {
	s := c.session(mode)
	if s == nil || c.Baseline.EnergyJ == 0 {
		return 0
	}
	return (s.EnergyJ - c.Baseline.EnergyJ) / c.Baseline.EnergyJ * 100
}

// MemoryNormalized returns average PSS relative to baseline (fig. 8).
func (c *Comparison) MemoryNormalized(mode Mode) float64 {
	s := c.session(mode)
	if s == nil || c.Baseline.AvgPSS == 0 {
		return 0
	}
	return s.AvgPSS / c.Baseline.AvgPSS
}

// Breakdown returns Parallaft's four overhead components as percentages of
// the baseline wall time (§5.2.1): fork+COW (system-time delta), resource
// contention (user-time delta), last-checker sync (all-wall minus
// main-wall), and runtime work (the residual).
func (c *Comparison) Breakdown() (forkCOW, contention, lastChecker, runtimeWork float64) {
	p := c.Parallaft
	if p == nil || c.Baseline.WallNs == 0 {
		return
	}
	base := c.Baseline.WallNs
	forkCOW = (p.SysNs - c.Baseline.SysNs) / base * 100
	contention = (p.UserNs - c.Baseline.UserNs) / base * 100
	lastChecker = (p.WallNs - p.MainWallNs) / base * 100
	total := c.PerfOverhead(ModeParallaft)
	runtimeWork = total - forkCOW - contention - lastChecker
	return
}

func (c *Comparison) session(mode Mode) *SessionResult {
	switch mode {
	case ModeBaseline:
		return c.Baseline
	case ModeParallaft:
		return c.Parallaft
	case ModeRAFT:
		return c.RAFT
	}
	return nil
}

// Compare runs baseline, Parallaft and RAFT sessions for a workload.
func (r *Runner) Compare(w *workload.Workload, withRAFT bool) (*Comparison, error) {
	base, err := r.RunWorkload(w, ModeBaseline)
	if err != nil {
		return nil, err
	}
	par, err := r.RunWorkload(w, ModeParallaft)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Name: w.Name, Baseline: base, Parallaft: par}
	if withRAFT {
		c.RAFT, err = r.RunWorkload(w, ModeRAFT)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// GeomeanOverhead computes the geometric-mean overhead (%) from
// per-benchmark overhead percentages, via the geomean of (1 + x).
func GeomeanOverhead(overheads []float64) float64 {
	if len(overheads) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range overheads {
		f := 1 + o/100
		if f <= 0 {
			f = 1e-9
		}
		sum += math.Log(f)
	}
	return (math.Exp(sum/float64(len(overheads))) - 1) * 100
}

// Geomean computes the plain geometric mean of positive values.
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			v = 1e-9
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// Table is a minimal fixed-width table formatter for harness output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Pct formats a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }
