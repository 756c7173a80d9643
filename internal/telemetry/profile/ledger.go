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
//     books. Host-side stages (packet export, farm dispatch/upload, remote
//     verification) are tracked in wall-clock time alongside.
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
	"sort"
	"strings"
	"sync"

	"parallaft/internal/machine"
	"parallaft/internal/telemetry"
)

// HostStage names for the wall-clock side of the ledger. Simulated-time
// classes come from machine.Activity; these stages spend host time only.
const (
	StageExport       = "export"
	StageFarmDispatch = "farm-dispatch"
	StageFarmUpload   = "farm-upload"
	StageRemoteVerify = "remote-verify"
)

// hostStage accumulates one host-side stage.
type hostStage struct {
	ns    int64
	simNs float64 // simulated time the remote side reported spending
	simJ  float64
	count int
}

// Ledger charges every simulated active nanosecond to exactly one activity
// class. It implements machine.ActiveSink: attached to a machine's cores it
// observes the identical float64 charges, in the identical order, that the
// cores' own books absorb — which is what makes Reconcile a bit-exact
// check rather than a tolerance comparison.
//
// The simulated-time side (OnActive) is only ever driven by the single
// simulation goroutine; the host-side stage map takes a mutex because farm
// reader goroutines merge remote slices concurrently.
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

	hostMu sync.Mutex
	host   map[string]*hostStage
	merged map[uint64]bool // (traceID) slices already merged, exactly once

	charges *telemetry.Counter // optional paft_ledger_* instruments
	slices  *telemetry.Counter
}

// NewLedger returns an empty ledger. Attach it to a machine before the run.
func NewLedger() *Ledger {
	return &Ledger{
		host:   make(map[string]*hostStage),
		merged: make(map[uint64]bool),
	}
}

// SetMetrics registers the paft_ledger_* instruments in reg and routes this
// ledger's accounting through them. Nil-safe on both sides.
func (l *Ledger) SetMetrics(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.charges = reg.Counter("paft_ledger_charges_total",
		"simulated-time charges observed by the overhead-attribution ledger")
	l.slices = reg.Counter("paft_ledger_remote_slices_total",
		"remote ledger slices merged back from checkd nodes by trace ID")
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

// AddHost charges host wall-clock nanoseconds to a named stage (one of the
// Stage* constants). Safe for concurrent use.
func (l *Ledger) AddHost(stage string, ns int64) {
	if l == nil {
		return
	}
	l.hostMu.Lock()
	s := l.host[stage]
	if s == nil {
		s = &hostStage{}
		l.host[stage] = s
	}
	s.ns += ns
	s.count++
	l.hostMu.Unlock()
}

// Slice is one remote node's ledger contribution for one checked packet:
// how much host wall time and how much of its own simulated replay time the
// remote verification spent. Shipped in the verdict's frame (checkd.Reply)
// and merged back into the submitting run's ledger by trace ID.
type Slice struct {
	TraceID uint64  `json:"trace"`
	HostNs  int64   `json:"host_ns"`
	SimNs   float64 `json:"sim_ns"`
	SimJ    float64 `json:"sim_j"`
}

// MergeRemote folds one remote slice into the remote-verify stage, exactly
// once per trace ID (redispatched packets may produce a second slice from
// another node; the first merged one wins). Safe for concurrent use.
func (l *Ledger) MergeRemote(s Slice) {
	if l == nil {
		return
	}
	l.hostMu.Lock()
	if s.TraceID != 0 && l.merged[s.TraceID] {
		l.hostMu.Unlock()
		return
	}
	if s.TraceID != 0 {
		l.merged[s.TraceID] = true
	}
	st := l.host[StageRemoteVerify]
	if st == nil {
		st = &hostStage{}
		l.host[StageRemoteVerify] = st
	}
	st.ns += s.HostNs
	st.simNs += s.SimNs
	st.simJ += s.SimJ
	st.count++
	l.hostMu.Unlock()
	l.slices.Inc()
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

// ClassJ returns the active joules charged to one activity class.
func (l *Ledger) ClassJ(a machine.Activity) float64 { return l.classJ[a] }

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
	ActiveSimNs float64            `json:"active_simns"`
	ActiveJ     float64            `json:"active_j"`
	IdleJ       float64            `json:"idle_j"`
	StaticJ     float64            `json:"static_j"`
	DRAMDynJ    float64            `json:"dram_dyn_j"`
	EnergyJ     float64            `json:"energy_j"`
	WallSimNs   float64            `json:"wall_simns"`
	Host        []HostStageSummary `json:"host,omitempty"`
}

// ClassSummary is one activity class's totals.
type ClassSummary struct {
	Activity string  `json:"activity"`
	SimNs    float64 `json:"simns"`
	Joules   float64 `json:"joules"`
	Charges  uint64  `json:"charges"`
}

// HostStageSummary is one host-side stage's totals.
type HostStageSummary struct {
	Stage  string  `json:"stage"`
	HostNs int64   `json:"host_ns"`
	SimNs  float64 `json:"sim_ns,omitempty"`
	SimJ   float64 `json:"sim_j,omitempty"`
	Count  int     `json:"count"`
}

// Summarize builds the deterministic summary (host stages sorted by name).
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
	l.hostMu.Lock()
	names := make([]string, 0, len(l.host))
	for n := range l.host {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := l.host[n]
		s.Host = append(s.Host, HostStageSummary{
			Stage: n, HostNs: h.ns, SimNs: h.simNs, SimJ: h.simJ, Count: h.count,
		})
	}
	l.hostMu.Unlock()
	return s
}

// Table renders the paper-style overhead breakdown: one row per activity
// class with simulated time, energy, and shares of the active totals. The
// output is deterministic for a deterministic run (host-side wall-clock
// stages, which are not, are listed by count only).
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
	if len(sum.Host) > 0 {
		fmt.Fprintf(&sb, "host-side stages (wall clock, not simulated):\n")
		for _, h := range sum.Host {
			fmt.Fprintf(&sb, "%-14s %10d ops\n", h.Stage, h.Count)
		}
	}
	return sb.String()
}
