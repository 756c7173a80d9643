package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry/profile"
	"parallaft/internal/workload"
)

// snapshotEngine is the suite's engine: the workload input files installed.
func snapshotEngine() *sim.Engine {
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 17)
	for name, data := range workload.Files() {
		k.AddFile(name, data)
	}
	return sim.New(m, k, oskernel.NewLoader(k, m.PageSize, 17))
}

// runEnd is what a finished run leaves: its statistics and the overhead
// ledger read off its machine.
type runEnd struct {
	Stats  *RunStats
	Ledger profile.Summary
}

// endOf is the end of r, whose Run or Resume has just returned st.
func endOf(r *Runtime, st *RunStats) runEnd {
	return runEnd{st, profile.Summarize(r.e.M, st.AllWallNs)}
}

// diffEnds reports the first difference between two run ends, walking every
// field — unexported books, per-segment rows, the detection and every
// ledger class included — and comparing floats by bit pattern; "" when they
// are identical.
func diffEnds(a, b runEnd) string {
	var walk func(path string, x, y reflect.Value) string
	walk = func(path string, x, y reflect.Value) string {
		switch x.Kind() {
		case reflect.Float64:
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return fmt.Sprintf("%s: %v vs %v", path, x.Float(), y.Float())
			}
		case reflect.Pointer:
			if x.IsNil() || y.IsNil() {
				if x.IsNil() != y.IsNil() {
					return path + ": nil on one side"
				}
				return ""
			}
			return walk(path, x.Elem(), y.Elem())
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				if d := walk(path+"."+x.Type().Field(i).Name, x.Field(i), y.Field(i)); d != "" {
					return d
				}
			}
		case reflect.Slice:
			if x.Len() != y.Len() {
				return fmt.Sprintf("%s: length %d vs %d", path, x.Len(), y.Len())
			}
			for i := 0; i < x.Len(); i++ {
				if d := walk(fmt.Sprintf("%s[%d]", path, i), x.Index(i), y.Index(i)); d != "" {
					return d
				}
			}
		case reflect.String:
			if x.String() != y.String() {
				return fmt.Sprintf("%s: %q vs %q", path, x.String(), y.String())
			}
		case reflect.Bool:
			if x.Bool() != y.Bool() {
				return fmt.Sprintf("%s: %v vs %v", path, x.Bool(), y.Bool())
			}
		case reflect.Int, reflect.Int64, reflect.Int32, reflect.Int16, reflect.Int8:
			if x.Int() != y.Int() {
				return fmt.Sprintf("%s: %d vs %d", path, x.Int(), y.Int())
			}
		case reflect.Uint, reflect.Uint64, reflect.Uint32, reflect.Uint16, reflect.Uint8:
			if x.Uint() != y.Uint() {
				return fmt.Sprintf("%s: %d vs %d", path, x.Uint(), y.Uint())
			}
		default:
			panic("diffEnds: unhandled kind " + x.Kind().String() + " at " + path)
		}
		return ""
	}
	return walk("run", reflect.ValueOf(a), reflect.ValueOf(b))
}

// snapshotCase is one protected run the snapshot invariant is checked on.
type snapshotCase struct {
	name string
	prog *asm.Program
	cfg  Config
}

func snapshotCases() []snapshotCase {
	// A quarter of the default slicing period gives each small program
	// several segments.
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles /= 4
	var cases []snapshotCase
	for _, w := range []struct {
		name  string
		scale float64
	}{{"444.namd", 0.03}, {"429.mcf", 0.02}, {"470.lbm", 0.03}, {"403.gcc", 0.3}, {"458.sjeng", 0.03}} {
		cases = append(cases, snapshotCase{w.name, workload.Get(w.name).Gen(w.scale)[0], cfg})
	}
	nmr := cfg
	nmr.Checkers, nmr.Diversity = 3, []string{"skid2x", "coldcache"}
	cases = append(cases, snapshotCase{"429.mcf main+3 skid2x,coldcache", workload.Get("429.mcf").Gen(0.01)[0], nmr})

	// Recovery with a checker fault (absorbed after arbitration) and a main
	// fault (rolled back). Both hooks keep their state in the run itself —
	// a replica's first dispatch, a register of the main and its name after
	// the rollback — so a restored run fires them exactly as the spine does.
	rec := recoveryConfig()
	rec.SlicePeriodCycles *= 3
	rec.ReplicaHook = func(seg, rep int, c *proc.Process, elapsedNs float64) {
		if seg == 1 && rep == 0 && elapsedNs == 0 {
			c.FlipRegisterBit(proc.GPRClass, 1, 0, 40)
		}
	}
	rec.MainHook = func(m *proc.Process, _ float64) {
		if m.Name == "main-restored" || m.Instrs < 700_000 || m.Regs.X[13] != 0 {
			return
		}
		m.Regs.X[13] = 1
	}
	cases = append(cases, snapshotCase{"recovery", loopProgram(200_000), rec})
	return cases
}

// snapshotEverySegment runs prog as a spine that snapshots every segment,
// whatever the pages the snapshots borrow.
func snapshotEverySegment(cfg Config, prog *asm.Program, at func(int, *Snapshot)) (runEnd, error) {
	return runToEnd(cfg, prog, func(r *Runtime) {
		r.atFirstDispatch = func(seg int) { at(seg, &Snapshot{r.clone(nil)}) }
	})
}

// runToEnd runs prog on a new engine, with rig (when set) applied to the
// runtime first.
func runToEnd(cfg Config, prog *asm.Program, rig func(*Runtime)) (runEnd, error) {
	r := NewRuntime(snapshotEngine(), cfg)
	if rig != nil {
		rig(r)
	}
	st, err := r.Run(prog)
	if err != nil {
		return runEnd{}, err
	}
	return endOf(r, st), nil
}

// resumeToEnd restores s with hook and runs it to the end.
func resumeToEnd(s *Snapshot, hook func(segment, replica int, checker *proc.Process, elapsedNs float64)) (runEnd, error) {
	r := s.Restore(hook)
	st, err := r.Resume()
	if err != nil {
		return runEnd{}, err
	}
	return endOf(r, st), nil
}

// TestSnapshotRestoreEqualsUninterrupted: a run restored from the snapshot
// of any segment and run to the end, and the spine that took the snapshots,
// both end with the statistics and the overhead ledger of a run that took
// none — every float bit for bit, stdout, the per-segment rows, the COW,
// dirty-page, identity-skip and memo-hit counters, and every activity
// class's time, energy and charge count.
func TestSnapshotRestoreEqualsUninterrupted(t *testing.T) {
	for _, tc := range snapshotCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := runToEnd(tc.cfg, tc.prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			type taken struct {
				seg  int
				snap *Snapshot
			}
			var snaps []taken
			spine, err := snapshotEverySegment(tc.cfg, tc.prog, func(seg int, s *Snapshot) {
				snaps = append(snaps, taken{seg, s})
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffEnds(spine, want); d != "" {
				t.Fatalf("the spine's end differs from a run without snapshots: %s", d)
			}
			if len(snaps) < 3 {
				t.Fatalf("%d snapshots; the case should have several segments", len(snaps))
			}
			t.Logf("%d snapshots", len(snaps))
			if testing.Short() { // the first, a middle and the last
				snaps = []taken{snaps[0], snaps[len(snaps)/2], snaps[len(snaps)-1]}
			}
			for _, s := range snaps {
				got, err := resumeToEnd(s.snap, tc.cfg.ReplicaHook)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffEnds(got, want); d != "" {
					t.Errorf("restored at segment %d: %s", s.seg, d)
				}
			}
			if tc.cfg.EnableRecovery && (want.Stats.RecoveredCheckerFaults != 1 || want.Stats.Rollbacks != 1) {
				t.Errorf("recovered checker faults %d, rollbacks %d: the case should exercise both",
					want.Stats.RecoveredCheckerFaults, want.Stats.Rollbacks)
			}
		})
	}
}

// TestSnapshotConcurrentRestores: two goroutines restore one snapshot and
// run it to the end while the spine that took it keeps running; the three
// share page bytes, input files and the program, so under -race this is the
// check that none of them writes what another reads.
func TestSnapshotConcurrentRestores(t *testing.T) {
	prog := workload.Get("470.lbm").Gen(0.03)[0]
	cfg := DefaultConfig()
	want, err := runToEnd(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]runEnd, 2)
	errs := make([]error, 2)
	spine, err := snapshotEverySegment(cfg, prog, func(seg int, s *Snapshot) {
		if seg != 1 {
			return
		}
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = resumeToEnd(s, nil)
			}()
		}
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffEnds(spine, want); d != "" {
		t.Errorf("spine: %s", d)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if d := diffEnds(got[i], want); d != "" {
			t.Errorf("restore %d: %s", i, d)
		}
	}
}

// TestSnapshotRefusesAccumulators: a run feeding a per-run accumulator is
// refused before it starts.
func TestSnapshotRefusesAccumulators(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"Profiler": func(c *Config) { c.Profiler = &profile.Recorder{} },
		"Windows":  func(c *Config) { c.Windows = &profile.WindowSampler{} },
		"Export":   func(c *Config) { c.Export = &packet.Exporter{} },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		_, err := NewRuntime(snapshotEngine(), cfg).RunSpine(loopProgram(1000), func(int, *Snapshot) {
			t.Errorf("Config.%s: a snapshot was taken", name)
		}, nil)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Observer != name {
			t.Errorf("Config.%s: RunSpine returned %v, want a *SnapshotError naming it", name, err)
		}
	}
}

// TestSpineCapsBorrowedPages: a spine of a run that rewrites most of its
// pages every segment keeps its first snapshot and no other, one of a run
// that rewrites few keeps one per segment, every segment is handed one, and
// the retired rows are RunStats.Segments as it grows.
func TestSpineCapsBorrowedPages(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     float64
		snapshots int
	}{{"429.mcf", 0.05, 1}, {"458.sjeng", 0.1, 6}, {"470.lbm", 0.1, 10}} {
		var segs []int
		var rows []SegmentStat
		distinct := map[*Snapshot]bool{}
		st, err := NewRuntime(snapshotEngine(), DefaultConfig()).RunSpine(workload.Get(tc.name).Gen(tc.scale)[0], func(seg int, s *Snapshot) {
			segs = append(segs, seg)
			distinct[s] = true
		}, func(row SegmentStat) { rows = append(rows, row) })
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != len(st.Segments) || len(distinct) != tc.snapshots {
			t.Errorf("%s: %d segments handed %d snapshots, want %d segments and %d snapshots",
				tc.name, len(segs), len(distinct), len(st.Segments), tc.snapshots)
		}
		if !reflect.DeepEqual(rows, st.Segments) {
			t.Errorf("%s: retired rows %v, RunStats.Segments %v", tc.name, rows, st.Segments)
		}
	}
}
