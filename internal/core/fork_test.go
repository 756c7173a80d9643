package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// forkEngine is the suite's engine: the workload input files installed.
func forkEngine() *sim.Engine {
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

// forkCase is one protected run the fork invariant is checked on.
type forkCase struct {
	name string
	prog *asm.Program
	cfg  Config
}

func forkCases() []forkCase {
	// A quarter of the default slicing period gives each small program
	// several segments.
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles /= 4
	var cases []forkCase
	for _, w := range []struct {
		name  string
		scale float64
	}{{"444.namd", 0.03}, {"429.mcf", 0.02}, {"470.lbm", 0.03}, {"403.gcc", 0.3}, {"458.sjeng", 0.03}} {
		cases = append(cases, forkCase{w.name, workload.Get(w.name).Gen(w.scale)[0], cfg})
	}
	nmr := cfg
	nmr.Checkers, nmr.Diversity = 3, []string{"skid2x", "coldcache"}
	cases = append(cases, forkCase{"429.mcf main+3 skid2x,coldcache", workload.Get("429.mcf").Gen(0.01)[0], nmr})

	// Recovery with a checker fault (absorbed after arbitration) and a main
	// fault (rolled back). Both hooks keep their state in the run itself —
	// a replica's first dispatch, a register of the main and its name after
	// the rollback — so a fork fires them exactly as its source does.
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
	cases = append(cases, forkCase{"recovery", loopProgram(200_000), rec})
	return cases
}

// runToEnd runs prog on a new engine, with rig (when set) applied to the
// runtime first.
func runToEnd(cfg Config, prog *asm.Program, rig func(*Runtime)) (runEnd, error) {
	r := NewRuntime(forkEngine(), cfg)
	if rig != nil {
		rig(r)
	}
	st, err := r.Run(prog)
	if err != nil {
		return runEnd{}, err
	}
	return endOf(r, st), nil
}

// runForking runs prog as a forking run on a new engine, handing dispatch
// the runtime it may fork.
func runForking(cfg Config, prog *asm.Program, dispatch func(r *Runtime, segment int, elapsedNs float64) bool) (runEnd, error) {
	r := NewRuntime(forkEngine(), cfg)
	st, err := r.RunForking(prog, func(seg int, elapsedNs float64) bool { return dispatch(r, seg, elapsedNs) }, nil)
	if err != nil {
		return runEnd{}, err
	}
	return endOf(r, st), nil
}

// resumeToEnd runs a fork to the end.
func resumeToEnd(f *Runtime) (runEnd, error) {
	st, err := f.Resume()
	if err != nil {
		return runEnd{}, err
	}
	return endOf(f, st), nil
}

// TestSnapshotRestoreEqualsUninterrupted: a fork taken at the first, a
// middle and the last replica-0 dispatch boundary of the first, a middle and
// the last segment and resumed to the end, and the forking run itself, all
// end with the statistics and the overhead ledger of a run that forked
// nowhere — every float bit for bit, stdout, the per-segment rows, the COW,
// dirty-page, identity-skip and memo-hit counters, and every activity
// class's time, energy and charge count.
func TestSnapshotRestoreEqualsUninterrupted(t *testing.T) {
	for _, tc := range forkCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := runToEnd(tc.cfg, tc.prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			boundaries := map[int]int{} // by segment
			src, err := runForking(tc.cfg, tc.prog, func(_ *Runtime, seg int, _ float64) bool {
				boundaries[seg]++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffEnds(src, want); d != "" {
				t.Fatalf("the run that never forked ends unlike a plain run: %s", d)
			}
			var segs []int
			for seg := range boundaries {
				segs = append(segs, seg)
			}
			slices.Sort(segs)
			if len(segs) < 3 {
				t.Fatalf("%d segments dispatched; the case should have several", len(segs))
			}
			at := map[int][]int{} // by segment: the boundaries to fork at
			for i, seg := range []int{segs[0], segs[len(segs)/2], segs[len(segs)-1]} {
				n := boundaries[seg]
				at[seg] = []int{0, n / 2, n - 1}
				if testing.Short() { // the first of the first, a middle one of a middle, the last of the last
					at[seg] = at[seg][i : i+1]
				}
			}
			seen, forks := map[int]int{}, 0
			src, err = runForking(tc.cfg, tc.prog, func(r *Runtime, seg int, _ float64) bool {
				k := seen[seg]
				seen[seg]++
				if !slices.Contains(at[seg], k) {
					return true
				}
				forks++
				got, err := resumeToEnd(r.Fork(tc.cfg.ReplicaHook))
				if err != nil {
					t.Fatal(err)
				}
				if d := diffEnds(got, want); d != "" {
					t.Errorf("forked at boundary %d of %d of segment %d: %s", k, boundaries[seg], seg, d)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := diffEnds(src, want); d != "" {
				t.Errorf("the run that forked %d times ends unlike a plain run: %s", forks, d)
			}
			t.Logf("%d forks over %d segments", forks, len(segs))
			if tc.cfg.EnableRecovery && (want.Stats.RecoveredCheckerFaults != 1 || want.Stats.Rollbacks != 1) {
				t.Errorf("recovered checker faults %d, rollbacks %d: the case should exercise both",
					want.Stats.RecoveredCheckerFaults, want.Stats.Rollbacks)
			}
		})
	}
}

// TestForkRunsBesideItsSource: two forks taken at one boundary run to the
// end on goroutines of their own while their source keeps running; the
// three share page bytes, input files and the program, so under -race this
// is the check that none of them writes what another reads.
func TestForkRunsBesideItsSource(t *testing.T) {
	prog := workload.Get("470.lbm").Gen(0.03)[0]
	cfg := DefaultConfig()
	want, err := runToEnd(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	forked := false
	got := make([]runEnd, 2)
	errs := make([]error, 2)
	src, err := runForking(cfg, prog, func(r *Runtime, seg int, _ float64) bool {
		if seg != 1 || forked {
			return true
		}
		forked = true
		for i := range got {
			f := r.Fork(nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = resumeToEnd(f)
			}()
		}
		return true
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffEnds(src, want); d != "" {
		t.Errorf("source: %s", d)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if d := diffEnds(got[i], want); d != "" {
			t.Errorf("fork %d: %s", i, d)
		}
	}
}

// TestForkRefusesAccumulators: a run feeding a per-run accumulator is
// refused before it starts.
func TestForkRefusesAccumulators(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"Profiler": func(c *Config) { c.Profiler = &profile.Recorder{} },
		"Windows":  func(c *Config) { c.Windows = &profile.WindowSampler{} },
		"Export":   func(c *Config) { c.Export = &packet.Exporter{} },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		_, err := NewRuntime(forkEngine(), cfg).RunForking(loopProgram(1000), func(int, float64) bool {
			t.Errorf("Config.%s: the run dispatched", name)
			return true
		}, nil)
		var fe *ForkError
		if !errors.As(err, &fe) || fe.Observer != name {
			t.Errorf("Config.%s: RunForking returned %v, want a *ForkError naming it", name, err)
		}
	}
}

// TestFocusedForkDecidesAsUnfocused: at every replica-0 dispatch boundary of
// the last segment, on both sides of its seal, two forks take the same
// register flip on their first dispatch; the one focused on the segment
// decides it, with the detection — none, or the same kind and detail — of the
// one run to the end. With one checker the boundaries fall on both sides of
// the seal and the flips include checker timeouts, whose budget counts from
// the instructions the checker ran before the seal; with three, replicas of
// the sealed segment still wait for a core.
func TestFocusedForkDecidesAsUnfocused(t *testing.T) {
	one := DefaultConfig()
	one.SlicePeriodCycles = 400_000
	three := one
	three.Checkers = 3
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"main+1", one}, {"main+3", three}} {
		t.Run(tc.name, func(t *testing.T) {
			prog := loopProgram(158_000)
			clean, err := runToEnd(tc.cfg, prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			target := len(clean.Stats.Segments) - 1 // the exit segment, retired by index or not
			regs := []int{1, 2, 3, 4, 5, 6}
			bits := []uint{62, 3, 40, 20}
			var before, after, queued int
			outcomes := map[string]int{}
			_, err = runForking(tc.cfg, prog, func(r *Runtime, seg int, _ float64) bool {
				if seg != target {
					return true
				}
				k := before + after
				if r.current == nil || r.current.Index != seg {
					after++
					live := r.segments[slices.IndexFunc(r.segments, func(s *Segment) bool { return s.Index == seg })]
					if slices.ContainsFunc(live.Replicas, func(rep *replica) bool { return rep.Task == nil }) {
						queued++
					}
				} else {
					before++
				}
				flip := func() func(int, int, *proc.Process, float64) {
					done := false
					return func(s, rep int, c *proc.Process, _ float64) {
						if !done && s == target && rep == 0 {
							c.FlipRegisterBit(proc.GPRClass, regs[k%len(regs)], 0, bits[k/len(regs)%len(bits)])
							done = true
						}
					}
				}
				focused := r.Fork(flip())
				focused.Focus(target)
				got, err := focused.Resume()
				if err != nil {
					t.Fatal(err)
				}
				want, err := r.Fork(flip()).Resume()
				if err != nil {
					t.Fatal(err)
				}
				g, w := got.Detected, want.Detected
				switch {
				case !focused.focus.compared && g == nil:
					t.Errorf("boundary %d: the focused run ended with its segment undecided", k)
				case (g == nil) != (w == nil):
					t.Errorf("boundary %d: focused detected %v, unfocused %v", k, g, w)
				case w == nil:
					outcomes["none"]++
				case g.Kind != w.Kind || g.Detail != w.Detail:
					t.Errorf("boundary %d: focused detected %v, unfocused %v", k, g, w)
				default:
					outcomes[w.Kind.String()]++
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("segment %d: %d boundaries before the seal, %d after (%d with a replica waiting for a core); detections %v",
				target, before, after, queued, outcomes)
			switch {
			case tc.cfg.Checkers > 1 && queued == 0:
				t.Error("no replica waited for a core after the seal")
			case tc.cfg.Checkers > 1:
			case before == 0 || after == 0:
				t.Errorf("%d boundaries before the seal, %d after: the test needs both", before, after)
			case outcomes["none"] == 0 || outcomes[ErrCheckerTimeout.String()] == 0:
				t.Errorf("detections %v: the flips should leave some runs undetected and time some out", outcomes)
			}
		})
	}
}
