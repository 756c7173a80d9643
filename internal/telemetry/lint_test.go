package telemetry_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/campaign"
	"parallaft/internal/checkd"
	"parallaft/internal/checkfarm"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/pagestore"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
)

// lintProgram is a minimal guest: enough compute to span a couple of
// segments, then a clean exit.
func lintProgram() *asm.Program {
	b := asm.NewBuilder("lint")
	b.MovI(2, 0)
	b.MovI(3, 200_000)
	b.Label("loop")
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.MovI(0, int64(oskernel.SysExit))
	b.MovI(1, 0)
	b.Syscall()
	return b.MustBuild()
}

// fullyInstrumentedRegistry builds one registry and routes every subsystem's
// instruments into it: a core runtime (which it also runs, so the hot paths
// exercise their instruments), a checkd executor, a pagestore, and a
// campaign progress meter. This is the same composition paftcheckd and
// paftbench use in production.
func fullyInstrumentedRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()

	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 1)
	l := oskernel.NewLoader(k, m.PageSize, 1)
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	// Three checkers so the NMR vote instruments (paft_core_vote_*,
	// per-replica slack gauges) are registered and linted too.
	cfg.Checkers = 3
	// The event recorder on, so the paft_trace_* instruments are registered
	// and the decisions and seal spans exercise them.
	rec := telemetry.NewRecorder(0)
	rec.SetMetrics(reg)
	cfg.Trace = rec
	// Profiler attached, so the paft_profile_* instruments register and the
	// sample hot path exercises them during the run.
	profiler := profile.NewRecorder(0)
	profiler.SetMetrics(reg)
	cfg.Profiler = profiler
	rt := core.NewRuntime(sim.New(m, k, l), cfg)
	if _, err := rt.Run(lintProgram()); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}

	store := pagestore.New(0)
	store.SetMetrics(reg)
	store.Insert(1, []byte("lint"))

	x := checkd.NewExecutor(store, checkd.Options{Workers: 1, Metrics: reg})
	x.Close()

	if pr := campaign.NewProgressWith(io.Discard, "lint", 1, reg); pr == nil {
		t.Fatal("NewProgressWith returned nil with a registry attached")
	}

	// A check farm with one live node registers the paft_farm_* fleet
	// instruments plus the per-stage latency histograms.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := checkd.NewServer(checkd.Options{Workers: 1})
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }() //nolint:errcheck
	farm := checkfarm.New(store, checkfarm.Options{Metrics: reg, Trace: rec})
	if err := farm.AddNode("tcp:" + ln.Addr().String()); err != nil {
		t.Fatalf("farm AddNode: %v", err)
	}
	farm.Close()
	srv.Shutdown()
	<-done
	return reg
}

// TestMetricNameLint asserts the exposition contract over the fully
// instrumented stack: every metric name is unique, matches the
// paft_<subsystem>_<quantity>[_unit] scheme, carries non-empty help, and
// counters follow the Prometheus `_total` convention.
func TestMetricNameLint(t *testing.T) {
	snap := fullyInstrumentedRegistry(t).Snapshot()
	if len(snap) < 40 {
		t.Fatalf("only %d metrics registered; the stack is not fully instrumented", len(snap))
	}

	nameRe := regexp.MustCompile(`^paft_(core|checkd|pagestore|campaign|farm|trace|profile|ledger)_[a-z0-9]+(_[a-z0-9]+)*$`)
	seen := make(map[string]bool)
	for _, ms := range snap {
		if seen[ms.Name] {
			t.Errorf("metric %s registered twice", ms.Name)
		}
		seen[ms.Name] = true
		if !nameRe.MatchString(ms.Name) {
			t.Errorf("metric %s violates the paft_<subsystem>_<quantity> naming scheme", ms.Name)
		}
		if strings.TrimSpace(ms.Help) == "" {
			t.Errorf("metric %s has no help string", ms.Name)
		}
		switch ms.Type {
		case "counter":
			if !strings.HasSuffix(ms.Name, "_total") {
				t.Errorf("counter %s must end in _total", ms.Name)
			}
		case "gauge", "histogram":
			if strings.HasSuffix(ms.Name, "_total") {
				t.Errorf("%s %s must not end in _total (counters only)", ms.Type, ms.Name)
			}
		default:
			t.Errorf("metric %s has unknown type %q", ms.Name, ms.Type)
		}
	}
}

// TestTraceKindHelpIsTotal walks the recorder's source for every declared
// Kind constant and asserts each one has a non-empty KindHelp
// entry. Parsing the source (rather than trusting Kinds(), which is derived
// from KindHelp itself) means adding a Kind without help fails `make check`.
func TestTraceKindHelpIsTotal(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "recorder.go", nil, 0)
	if err != nil {
		t.Fatalf("parse recorder.go: %v", err)
	}
	var kinds []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			id, ok := vs.Type.(*ast.Ident)
			if !ok || id.Name != "Kind" {
				continue
			}
			for _, name := range vs.Names {
				kinds = append(kinds, name.Name)
			}
		}
	}
	if len(kinds) == 0 {
		t.Fatal("found no Kind constants in recorder.go; did the declarations move?")
	}

	// Map constant names to their runtime values via the package itself.
	byName := map[string]telemetry.Kind{
		"SegmentStart":  telemetry.SegmentStart,
		"SegmentSeal":   telemetry.SegmentSeal,
		"Syscall":       telemetry.Syscall,
		"Nondet":        telemetry.Nondet,
		"Signal":        telemetry.Signal,
		"CheckerDone":   telemetry.CheckerDone,
		"Compare":       telemetry.Compare,
		"Migrate":       telemetry.Migrate,
		"DVFS":          telemetry.DVFS,
		"Queue":         telemetry.Queue,
		"Detect":        telemetry.Detect,
		"Arbitrate":     telemetry.Arbitrate,
		"Recover":       telemetry.Recover,
		"Rollback":      telemetry.Rollback,
		"Barrier":       telemetry.Barrier,
		"Stall":         telemetry.Stall,
		"Vote":          telemetry.Vote,
		"ForwardRepair": telemetry.ForwardRepair,
		"Truncated":     telemetry.Truncated,
	}
	for _, name := range kinds {
		k, ok := byName[name]
		if !ok {
			t.Errorf("telemetry.%s is a new Kind constant: add it to this test's table and to telemetry.KindHelp", name)
			continue
		}
		if telemetry.KindHelp[k] == "" {
			t.Errorf("telemetry.%s (%q) has no KindHelp entry", name, k)
		}
	}
	if len(telemetry.KindHelp) != len(kinds) {
		t.Errorf("KindHelp has %d entries but recorder.go declares %d Kind constants", len(telemetry.KindHelp), len(kinds))
	}
}
