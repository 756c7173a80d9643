// Package profile is the attribution layer of the observability stack: it
// answers *where* a run's simulated cycles and modeled joules went, not
// just how many there were.
//
// Three instruments share the package:
//
//   - Ledger: an overhead-attribution ledger that charges every simulated
//     active nanosecond and every active joule to exactly one activity
//     class (guest execution, slicing barriers, fork/COW, dirty-page
//     enumeration, recording, replay steering, compare/vote hashing,
//     recovery), reconciled bit-for-bit against the machine's own energy
//     books. It keeps simulated books only: host-side stages (packet
//     export, farm dispatch/upload, remote verification) are accounted by
//     the telemetry.Recorder's stage spans.
//   - Recorder/Sampler: a deterministic sim-clock sampling profiler fed by
//     the interpreter dispatch loop, attributing samples to guest PC →
//     basic block → workload symbol with per-actor and per-core-kind
//     dimensions, emitted as gzipped pprof protobuf or folded stacks.
//   - WindowSampler: fixed sim-clock-interval snapshot deltas over a
//     telemetry registry, kept in a bounded ring and exported as JSONL.
//
// Everything here is observation-only: attaching any of the three to a run
// never consumes simulated time and never changes a verdict or a table.
package profile

import (
	"fmt"
	"math"
	"strings"

	"parallaft/internal/machine"
	"parallaft/internal/telemetry"
)

// Ledger charges every simulated active nanosecond to exactly one activity
// class. It implements machine.ActiveSink: attached to a machine's cores it
// observes the identical float64 charges, in the identical order, that the
// cores' own books absorb — which is what makes Reconcile a bit-exact
// check rather than a tolerance comparison.
//
// It is only ever driven by the single simulation goroutine.
type Ledger struct {
	classNs      [machine.NumActivities]float64
	classJ       [machine.NumActivities]float64
	classCharges [machine.NumActivities]uint64

	// mirror is the per-core, per-ladder-point chronological copy of the
	// book: mirror[coreID][freqIdx] accumulates the same charges as
	// Core.ActiveNsAt(freqIdx), in the same order.
	mirror  [][]float64
	ladders [][]machine.FreqPoint
	kinds   []machine.CoreKind

	finished  bool
	wallNs    float64
	energyJ   float64
	breakdown machine.EnergyBreakdown

	charges *telemetry.Counter // optional paft_ledger_charges_total
}

// NewLedger returns an empty ledger. Attach it to a machine before the run.
func NewLedger() *Ledger { return &Ledger{} }

// SetMetrics registers paft_ledger_charges_total in reg and counts this
// ledger's charges through it. Nil-safe on both sides.
func (l *Ledger) SetMetrics(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.charges = reg.Counter("paft_ledger_charges_total",
		"simulated-time charges observed by the overhead-attribution ledger")
}

// Attach sizes the per-core mirrors for m and installs the ledger as the
// machine's charge observer. Call once, before the run starts.
func (l *Ledger) Attach(m *machine.Machine) {
	l.mirror = make([][]float64, len(m.Cores))
	l.ladders = make([][]machine.FreqPoint, len(m.Cores))
	l.kinds = make([]machine.CoreKind, len(m.Cores))
	for i, c := range m.Cores {
		l.mirror[i] = make([]float64, len(c.Ladder))
		l.ladders[i] = c.Ladder
		l.kinds[i] = c.Kind
	}
	m.SetActiveSink(l)
}

// OnActive implements machine.ActiveSink. Allocation-free: it runs on the
// simulation's accounting path.
func (l *Ledger) OnActive(c *machine.Core, act machine.Activity, freqIdx int, ns float64) {
	l.classNs[act] += ns
	l.classJ[act] += ns * c.Ladder[freqIdx].ActiveMW * 1e-12
	l.classCharges[act]++
	l.mirror[c.ID][freqIdx] += ns
	l.charges.Inc()
}

// Finish closes the books at the end of a run: it records the run's wall
// clock and the machine's own energy integration (total and decomposed), so
// the ledger's energy report uses the very same code path the stats do.
func (l *Ledger) Finish(wallNs float64, m *machine.Machine) {
	if l == nil {
		return
	}
	l.finished = true
	l.wallNs = wallNs
	l.energyJ = m.EnergyJ(wallNs)
	l.breakdown = m.EnergyBreakdownJ(wallNs)
}

// ClassNs returns the simulated nanoseconds charged to one activity class.
func (l *Ledger) ClassNs(a machine.Activity) float64 { return l.classNs[a] }

// ClassCharges returns how many individual charges one class absorbed.
func (l *Ledger) ClassCharges(a machine.Activity) uint64 { return l.classCharges[a] }

// ActiveNs sums the simulated active time over every class — the ledger's
// view of the machines' time books.
func (l *Ledger) ActiveNs() float64 {
	var t float64
	for a := machine.Activity(0); a < machine.NumActivities; a++ {
		t += l.classNs[a]
	}
	return t
}

// ActiveJ sums the active energy over every class.
func (l *Ledger) ActiveJ() float64 {
	var j float64
	for a := machine.Activity(0); a < machine.NumActivities; a++ {
		j += l.classJ[a]
	}
	return j
}

// mirrorActiveEnergyJ recomputes one core's active energy from the mirror
// with the same formula, same iteration order, as Core.ActiveEnergyJ — so
// bit-exact mirrors imply a bit-exact energy book.
func (l *Ledger) mirrorActiveEnergyJ(coreID int) float64 {
	var j float64
	for i, ns := range l.mirror[coreID] {
		j += ns * 1e-9 * l.ladders[coreID][i].ActiveMW * 1e-3
	}
	return j
}

// Reconcile verifies the attribution invariant against the machine's books:
//
//  1. Per core and ladder point, the ledger's chronological mirror equals
//     the core's own active-time book bit for bit (math.Float64bits) —
//     proving the ledger observed every charge, exactly once, in order.
//  2. The active energy recomputed from the mirror equals each core's
//     ActiveEnergyJ bit for bit.
//  3. No charge landed in ActUnattributed — every simulated nanosecond was
//     claimed by exactly one declared activity class.
//
// Together these make the per-activity decomposition exact: the classes
// partition the observed charge stream, and the observed stream *is* the
// book. A new accounting call site that forgets to declare its class fails
// here (condition 3), as does any path that bypasses the sink (condition 1).
func (l *Ledger) Reconcile(m *machine.Machine) error {
	if len(l.mirror) != len(m.Cores) {
		return fmt.Errorf("profile: ledger attached to %d cores, machine has %d", len(l.mirror), len(m.Cores))
	}
	for _, c := range m.Cores {
		for f := range c.Ladder {
			book := c.ActiveNsAt(f)
			mir := l.mirror[c.ID][f]
			if math.Float64bits(book) != math.Float64bits(mir) {
				return fmt.Errorf("profile: core %d freq %d: book %.17g ns != ledger mirror %.17g ns",
					c.ID, f, book, mir)
			}
		}
		if bj, mj := c.ActiveEnergyJ(), l.mirrorActiveEnergyJ(c.ID); math.Float64bits(bj) != math.Float64bits(mj) {
			return fmt.Errorf("profile: core %d: book %.17g J != ledger mirror %.17g J", c.ID, bj, mj)
		}
	}
	if n := l.classCharges[machine.ActUnattributed]; n != 0 {
		return fmt.Errorf("profile: %d charges (%.1f ns) unattributed — an accounting site is missing its activity class",
			n, l.classNs[machine.ActUnattributed])
	}
	return nil
}

// Summary is the ledger's deterministic JSON form for -stats-json.
type Summary struct {
	Classes []ClassSummary `json:"classes"`
	// ActiveSimNs/ActiveJ are the per-class sums; IdleJ/StaticJ/DRAMDynJ
	// and EnergyJ come from the machine's own integration at Finish.
	ActiveSimNs float64 `json:"active_simns"`
	ActiveJ     float64 `json:"active_j"`
	IdleJ       float64 `json:"idle_j"`
	StaticJ     float64 `json:"static_j"`
	DRAMDynJ    float64 `json:"dram_dyn_j"`
	EnergyJ     float64 `json:"energy_j"`
	WallSimNs   float64 `json:"wall_simns"`
}

// ClassSummary is one activity class's totals.
type ClassSummary struct {
	Activity string  `json:"activity"`
	SimNs    float64 `json:"simns"`
	Joules   float64 `json:"joules"`
	Charges  uint64  `json:"charges"`
}

// Summarize builds the deterministic summary.
func (l *Ledger) Summarize() Summary {
	s := Summary{
		ActiveSimNs: l.ActiveNs(),
		ActiveJ:     l.ActiveJ(),
		IdleJ:       l.breakdown.IdleJ,
		StaticJ:     l.breakdown.StaticJ,
		DRAMDynJ:    l.breakdown.DRAMDynJ,
		EnergyJ:     l.energyJ,
		WallSimNs:   l.wallNs,
	}
	for a := machine.Activity(0); a < machine.NumActivities; a++ {
		if a == machine.ActUnattributed && l.classCharges[a] == 0 {
			continue
		}
		s.Classes = append(s.Classes, ClassSummary{
			Activity: a.String(),
			SimNs:    l.classNs[a],
			Joules:   l.classJ[a],
			Charges:  l.classCharges[a],
		})
	}
	return s
}

// Table renders the paper-style overhead breakdown: one row per activity
// class with simulated time, energy, and shares of the active totals. The
// output is deterministic for a deterministic run.
func (l *Ledger) Table() string {
	var sb strings.Builder
	sum := l.Summarize()
	fmt.Fprintf(&sb, "%-14s %12s %7s %12s %7s %10s\n",
		"activity", "sim-ms", "time%", "mJ", "energy%", "charges")
	totNs, totJ := sum.ActiveSimNs, sum.ActiveJ
	for _, c := range sum.Classes {
		tp, ep := 0.0, 0.0
		if totNs > 0 {
			tp = 100 * c.SimNs / totNs
		}
		if totJ > 0 {
			ep = 100 * c.Joules / totJ
		}
		fmt.Fprintf(&sb, "%-14s %12.3f %6.2f%% %12.4f %6.2f%% %10d\n",
			c.Activity, c.SimNs/1e6, tp, c.Joules*1e3, ep, c.Charges)
	}
	fmt.Fprintf(&sb, "%-14s %12.3f %7s %12.4f\n", "active-total", totNs/1e6, "", totJ*1e3)
	if l.finished {
		fmt.Fprintf(&sb, "%-14s %12s %7s %12.4f\n", "idle", "", "", sum.IdleJ*1e3)
		fmt.Fprintf(&sb, "%-14s %12s %7s %12.4f\n", "static", "", "", sum.StaticJ*1e3)
		fmt.Fprintf(&sb, "%-14s %12s %7s %12.4f\n", "dram-dyn", "", "", sum.DRAMDynJ*1e3)
		fmt.Fprintf(&sb, "%-14s %12.3f %7s %12.4f\n", "wall/total", sum.WallSimNs/1e6, "", sum.EnergyJ*1e3)
	}
	return sb.String()
}
