package stats

import (
	"bytes"
	"fmt"

	"parallaft/internal/core"
	"parallaft/internal/proc"
)

// NMRRow is one scenario's voting-outcome distribution from the Checkers=3
// campaign: how many segments retired unanimously, how many dissenting
// replicas the reference-side quorum absorbed in place, how many segments a
// replica quorum outvoted the reference in, and whether the main was
// repaired forward (no rollback charged) or rolled back.
type NMRRow struct {
	Scenario string

	Unanimous       int
	Absorbed        int
	Outvoted        int
	ForwardRepaired int
	RolledBack      int
	NoQuorum        int

	Detected *core.DetectedError
	// OutputIntact reports whether the run's exit code and stdout match the
	// fault-free baseline — the end-to-end correctness check behind the
	// "absorbed" and "repaired" claims.
	OutputIntact bool
}

// nmrConfig builds the campaign's runtime config: the default Parallaft
// config (plus any runner tweak), always at three replicas so every
// scenario votes.
func (r *Runner) nmrConfig() core.Config {
	cfg := r.RuntimeConfig(ModeParallaft)
	cfg.Checkers = 3
	return cfg
}

// RunNMR runs the main+3 NMR demonstration campaign over the table-2
// program (compute, one visible write, a long silent tail). Three
// scenarios, all independent simulations fanned out over Runner.Parallel:
//
//   - clean: no fault; every segment must retire unanimously.
//   - checker-seu: an SEU lands in one replica mid-segment; the reference
//     plus the two healthy replicas keep the quorum and absorb the
//     dissenter in place — no rollback, no arbitration, no detection.
//   - main-fault: the SEU lands in the main itself; the three replicas
//     agree pairwise, outvote the end checkpoint, and the main is repaired
//     by a forward copy of the agreed state — again with zero rollbacks.
func (r *Runner) RunNMR() ([]NMRRow, error) {
	prog := table2Program()

	// The fault-free reference output (exit code + stdout).
	e := r.NewEngine()
	base, err := e.RunBaseline(prog, e.M.BigCores()[0])
	if err != nil {
		return nil, fmt.Errorf("nmr baseline: %w", err)
	}

	type scenario struct {
		name string
		rig  func(cfg *core.Config)
	}
	scenarios := []scenario{
		{"clean", func(*core.Config) {}},
		{"checker-seu", func(cfg *core.Config) {
			// Replica 0 only: the single-fault model.
			fired := false
			cfg.ReplicaHook = func(seg, rep int, c *proc.Process, _ float64) {
				if fired || seg < 1 || rep != 0 {
					return
				}
				c.FlipRegisterBit(proc.GPRClass, 8, 0, 17)
				fired = true
			}
		}},
		{"main-fault", func(cfg *core.Config) {
			// The flip lands in the silent post-write tail: the segments the
			// repair discards contain no escaped output, so the forward copy
			// leaves the program's stdout and exit code untouched.
			fired := false
			cfg.MainHook = func(m *proc.Process, _ float64) {
				if fired || m.Instrs < 1_200_000 {
					return
				}
				m.FlipRegisterBit(proc.GPRClass, 8, 0, 17)
				fired = true
			}
		}},
	}

	return fanOut(r, "nmr", len(scenarios), func(i int) (NMRRow, error) {
		sc := scenarios[i]
		cfg := r.nmrConfig()
		sc.rig(&cfg)
		rt := core.NewRuntime(r.NewEngine(), cfg)
		stats, err := rt.Run(prog)
		if err != nil {
			return NMRRow{}, fmt.Errorf("nmr %s: %w", sc.name, err)
		}
		return NMRRow{
			Scenario:        sc.name,
			Unanimous:       stats.VoteUnanimous,
			Absorbed:        stats.VoteAbsorbed,
			Outvoted:        stats.VoteOutvotedReplicas,
			ForwardRepaired: stats.ForwardRepairs,
			RolledBack:      stats.Rollbacks,
			NoQuorum:        stats.VoteNoQuorum,
			Detected:        stats.Detected,
			OutputIntact: stats.ExitCode == base.ExitCode &&
				bytes.Equal(stats.Stdout, base.Stdout),
		}, nil
	})
}

// FormatNMR renders the voting-outcome table — the Table-2 extension for
// NMR mode: faults that a single checker could only detect (and pay a
// rollback for) are absorbed or repaired forward by the majority.
func FormatNMR(rows []NMRRow) string {
	t := &Table{Header: []string{
		"scenario", "unanimous", "absorbed", "outvoted",
		"fwd-repaired", "rolled-back", "no-quorum", "detected", "output"}}
	for _, row := range rows {
		detected := "-"
		if row.Detected != nil {
			detected = row.Detected.Kind.String()
		}
		output := "intact"
		if !row.OutputIntact {
			output = "DIVERGED"
		}
		t.AddRow(row.Scenario,
			fmt.Sprintf("%d", row.Unanimous),
			fmt.Sprintf("%d", row.Absorbed),
			fmt.Sprintf("%d", row.Outvoted),
			fmt.Sprintf("%d", row.ForwardRepaired),
			fmt.Sprintf("%d", row.RolledBack),
			fmt.Sprintf("%d", row.NoQuorum),
			detected, output)
	}
	return "NMR mode (3 replicas): voting outcomes — checker SEUs absorbed in place, main faults repaired forward\n" + t.String()
}
