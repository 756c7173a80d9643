package stats

import (
	"fmt"

	"parallaft/internal/machine"
	"parallaft/internal/telemetry/profile"
)

// LedgerRow is one workload's reconciled overhead attribution: where every
// active simulated nanosecond of the protected run went, as shares of the
// active total, plus the absolute books the shares were cut from.
type LedgerRow struct {
	Name    string
	Summary profile.Summary
}

// share returns one activity class's percentage of the active sim time.
func (r *LedgerRow) share(name string) float64 {
	if r.Summary.ActiveSimNs == 0 {
		return 0
	}
	for _, c := range r.Summary.Classes {
		if c.Activity == name {
			return 100 * c.SimNs / r.Summary.ActiveSimNs
		}
	}
	return 0
}

// ledgerWorkloads is the default subset for the ledger experiment — the
// three benchmarks the paper's §5.2.1 breakdown discusses by name.
var ledgerWorkloads = []string{"429.mcf", "433.milc", "470.lbm"}

// RunLedger runs the overhead-attribution experiment: one Parallaft session
// per workload, its ledger checked by the reconciliation invariant before it
// is reported. A reconcile failure fails the experiment — a breakdown with
// unclassed charges is not worth printing. Pass nil for the default
// three-benchmark subset.
func (r *Runner) RunLedger(names []string) ([]LedgerRow, error) {
	if names == nil {
		names = ledgerWorkloads
	}
	ws, err := resolveWorkloads(names)
	if err != nil {
		return nil, err
	}
	return fanOut(r, "ledger", len(ws), func(i int) (LedgerRow, error) {
		s, err := r.RunWorkload(ws[i], ModeParallaft)
		if err != nil {
			return LedgerRow{}, err
		}
		if err := s.Ledger.Reconcile(); err != nil {
			return LedgerRow{}, fmt.Errorf("ledger %s: %w", ws[i].Name, err)
		}
		return LedgerRow{Name: ws[i].Name, Summary: s.Ledger}, nil
	})
}

// addSummaries folds one program's summary into a workload aggregate,
// matching classes by name (both sides enumerate the same activity enum, so
// order is stable).
func addSummaries(a, b profile.Summary) profile.Summary {
	if len(a.Classes) == 0 {
		return b
	}
	byName := make(map[string]int, len(a.Classes))
	for i, c := range a.Classes {
		byName[c.Activity] = i
	}
	for _, c := range b.Classes {
		if i, ok := byName[c.Activity]; ok {
			a.Classes[i].SimNs += c.SimNs
			a.Classes[i].Joules += c.Joules
			a.Classes[i].Charges += c.Charges
		} else {
			a.Classes = append(a.Classes, c)
		}
	}
	a.ActiveSimNs += b.ActiveSimNs
	a.ActiveJ += b.ActiveJ
	a.IdleJ += b.IdleJ
	a.StaticJ += b.StaticJ
	a.DRAMDynJ += b.DRAMDynJ
	a.EnergyJ += b.EnergyJ
	a.WallSimNs += b.WallSimNs
	a.BookNs += b.BookNs
	return a
}

// FormatLedger renders the overhead-breakdown table: per workload, each
// activity class's share of the active simulated time, with the absolute
// active/wall books the shares were cut from. The classes are the machine's
// own books and every row passed the reconciliation invariant (no charge
// unclassed), which is what separates this table from a sampled profile:
// the shares cover every charge of the books.
func FormatLedger(rows []LedgerRow) string {
	t := &Table{Header: []string{
		"workload", "active-ms", "main%", "checker%", "cow%", "fork%",
		"record%", "replay%", "compare%", "other%", "energy-mJ"}}
	for i := range rows {
		row := &rows[i]
		main := row.share(machine.ActGuestMain.String())
		chk := row.share(machine.ActGuestChecker.String())
		cow := row.share(machine.ActCOW.String())
		fork := row.share(machine.ActFork.String())
		rec := row.share(machine.ActRecord.String())
		rep := row.share(machine.ActReplay.String())
		cmp := row.share(machine.ActCompare.String())
		other := 100 - main - chk - cow - fork - rec - rep - cmp
		if row.Summary.ActiveSimNs == 0 {
			other = 0
		}
		t.AddRow(row.Name,
			fmt.Sprintf("%.3f", row.Summary.ActiveSimNs/1e6),
			fmt.Sprintf("%.2f", main),
			fmt.Sprintf("%.2f", chk),
			fmt.Sprintf("%.2f", cow),
			fmt.Sprintf("%.2f", fork),
			fmt.Sprintf("%.2f", rec),
			fmt.Sprintf("%.2f", rep),
			fmt.Sprintf("%.2f", cmp),
			fmt.Sprintf("%.2f", other),
			fmt.Sprintf("%.3f", row.Summary.EnergyJ*1e3))
	}
	return "Overhead attribution (reconciled ledger): share of active simulated time per activity class\n" + t.String()
}
