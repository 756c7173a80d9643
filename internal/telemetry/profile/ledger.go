// Package profile is the attribution layer of the observability stack: it
// answers *where* a run's simulated cycles and modeled joules went, not
// just how many there were.
//
// Three instruments share the package:
//
//   - Summarize: the overhead-attribution ledger, a read-only view of the
//     machine's per-activity books, which hold every simulated active
//     nanosecond and every active joule under exactly one activity class
//     (guest execution, slicing barriers, fork/COW, dirty-page
//     enumeration, recording, replay steering, compare/vote hashing,
//     recovery). Reconcile checks that no charge went unclassed. It covers
//     simulated books only: host-side stages (packet export, farm
//     dispatch/upload, remote verification) are accounted by the
//     telemetry.Recorder's stage spans.
//   - Recorder/Sampler: a deterministic sim-clock sampling profiler fed by
//     the interpreter dispatch loop, attributing samples to guest PC →
//     basic block → workload symbol with per-actor and per-core-kind
//     dimensions, emitted as gzipped pprof protobuf or folded stacks.
//   - WindowSampler: fixed sim-clock-interval snapshot deltas over a
//     telemetry registry, kept in a bounded ring and exported as JSONL.
//
// Everything here is observation-only: reading the ledger or attaching a
// sampler to a run never consumes simulated time and never changes a
// verdict or a table.
package profile

import (
	"fmt"
	"strings"

	"parallaft/internal/machine"
)

// Summary is the overhead ledger of one run (or the sum of several), in the
// deterministic JSON form -stats-json carries.
type Summary struct {
	Classes []ClassSummary `json:"classes"`
	// ActiveSimNs/ActiveJ are the per-class sums; IdleJ/StaticJ/DRAMDynJ
	// and EnergyJ come from the machine's own integration over the wall time.
	ActiveSimNs float64 `json:"active_simns"`
	ActiveJ     float64 `json:"active_j"`
	IdleJ       float64 `json:"idle_j"`
	StaticJ     float64 `json:"static_j"`
	DRAMDynJ    float64 `json:"dram_dyn_j"`
	EnergyJ     float64 `json:"energy_j"`
	WallSimNs   float64 `json:"wall_simns"`
	// BookNs is the cores' own active-time books summed core by core. The
	// classes partition the same charges, so ActiveSimNs equals it up to
	// float reassociation. Not part of the JSON form.
	BookNs float64 `json:"-"`
}

// ClassSummary is one activity class's totals.
type ClassSummary struct {
	Activity string  `json:"activity"`
	SimNs    float64 `json:"simns"`
	Joules   float64 `json:"joules"`
	Charges  uint64  `json:"charges"`
}

// Summarize reads the overhead ledger off m after a run that took wallNs of
// simulated wall time. Its classes are the machine's own per-activity books
// (machine.Machine.Charged); the idle, static, DRAM and total energy come
// from the machine's integration over wallNs, the same code the run's stats
// use.
func Summarize(m *machine.Machine, wallNs float64) Summary {
	b := m.EnergyBreakdownJ(wallNs)
	s := Summary{
		IdleJ:     b.IdleJ,
		StaticJ:   b.StaticJ,
		DRAMDynJ:  b.DRAMDynJ,
		EnergyJ:   m.EnergyJ(wallNs),
		WallSimNs: wallNs,
	}
	for a := machine.Activity(0); a < machine.NumActivities; a++ {
		t := m.Charged(a)
		s.ActiveSimNs += t.Ns
		s.ActiveJ += t.J
		if a == machine.ActUnattributed && t.Charges == 0 {
			continue
		}
		s.Classes = append(s.Classes, ClassSummary{
			Activity: a.String(),
			SimNs:    t.Ns,
			Joules:   t.J,
			Charges:  t.Charges,
		})
	}
	for _, c := range m.Cores {
		s.BookNs += c.ActiveNs()
	}
	return s
}

// Reconcile checks the attribution invariant: no charge landed in
// ActUnattributed, so every simulated nanosecond of the books was claimed by
// exactly one declared activity class. A new accounting call site that
// forgets to declare its class fails here.
func (s Summary) Reconcile() error {
	for _, c := range s.Classes {
		if c.Activity == machine.ActUnattributed.String() {
			return fmt.Errorf("profile: %d charges (%.1f ns) unattributed — an accounting site is missing its activity class",
				c.Charges, c.SimNs)
		}
	}
	return nil
}

// Table renders the paper-style overhead breakdown: one row per activity
// class with simulated time, energy, and shares of the active totals, then
// the run's idle, static, DRAM and total energy. The output is deterministic
// for a deterministic run.
func (s Summary) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %7s %12s %7s %10s\n",
		"activity", "sim-ms", "time%", "mJ", "energy%", "charges")
	totNs, totJ := s.ActiveSimNs, s.ActiveJ
	for _, c := range s.Classes {
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
	fmt.Fprintf(&sb, "%-14s %12s %7s %12.4f\n", "idle", "", "", s.IdleJ*1e3)
	fmt.Fprintf(&sb, "%-14s %12s %7s %12.4f\n", "static", "", "", s.StaticJ*1e3)
	fmt.Fprintf(&sb, "%-14s %12s %7s %12.4f\n", "dram-dyn", "", "", s.DRAMDynJ*1e3)
	fmt.Fprintf(&sb, "%-14s %12.3f %7s %12.4f\n", "wall/total", s.WallSimNs/1e6, "", s.EnergyJ*1e3)
	return sb.String()
}
