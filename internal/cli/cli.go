// Package cli is the flag layer the commands share. Every flag more than one
// command offers is checked, or turned into the runtime object behind it,
// here and nowhere else; each command keeps its own default and help text.
//
// The commands share one exit-code convention: 0 success, 1 a run failed,
// 2 a usage error, reported before any simulation starts (paftcheckd adds 3
// for an infrastructure failure).
package cli

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"parallaft/internal/asm"
	"parallaft/internal/core"
	"parallaft/internal/lang"
	"parallaft/internal/stats"
	"parallaft/internal/telemetry"
	"parallaft/internal/workload"
)

// usageError marks the caller's mistake: Exit reports it with status 2.
type usageError struct{ error }

// Usagef returns a usage error.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Exit reports err, if any, on stderr as "cmd: err" and returns the exit
// status: 0 for nil, 2 for a usage error, 1 for anything else.
func Exit(stderr io.Writer, cmd string, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// Mode parses -mode.
func Mode(name string) (stats.Mode, error) {
	for _, m := range []stats.Mode{stats.ModeBaseline, stats.ModeParallaft, stats.ModeRAFT} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, Usagef("unknown mode %q (choose baseline, parallaft or raft)", name)
}

// Replicas checks -checkers and -diversity and returns the preset list
// (empty elements mean "none"). Zero or negative replicas cannot vote.
func Replicas(checkers int, diversity string) ([]string, error) {
	if err := Positive("checkers", "replica count", float64(checkers), false); err != nil {
		return nil, err
	}
	var presets []string
	if diversity != "" {
		presets = strings.Split(diversity, ",")
	}
	if err := core.ValidateDiversity(presets); err != nil {
		return nil, usageError{err}
	}
	return presets, nil
}

// Positive checks a numeric flag: below zero is a usage error, and so is
// zero unless it has a documented meaning (zeroOK). No such value may fall
// back to a default further down or run a degenerate guest with status 0.
func Positive(flag, what string, v float64, zeroOK bool) error {
	if v > 0 || zeroOK && v == 0 {
		return nil
	}
	bound := "a positive"
	if zeroOK {
		bound = "zero or a positive"
	}
	return Usagef("-%s must be %s %s, got %v", flag, bound, what, v)
}

// Tweak is the runner ConfigTweak behind -checkers, -diversity, -spans and
// the event recorder. RAFT sessions compare at syscalls only, so they cannot
// vote: the replica knobs apply to state-comparing (Parallaft) configs.
func Tweak(checkers int, presets []string, spans *telemetry.SpanRecorder, trace *telemetry.Recorder) func(*core.Config) {
	return func(c *core.Config) {
		c.Spans, c.Trace = spans, trace
		if c.CompareStates {
			c.Checkers, c.Diversity = checkers, presets
		}
	}
}

// ServeMetrics serves reg as Prometheus text at http://addr/metrics until
// the returned server is closed, and announces the resolved address (it
// matters when addr asks for port 0) on stderr. An address that cannot be
// served is a usage error.
func ServeMetrics(addr string, reg *telemetry.Registry, cmd string, stderr io.Writer) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, usageError{fmt.Errorf("-metrics-addr: %w", err)}
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "%s: metrics on http://%s/metrics\n", cmd, ln.Addr())
	return srv, nil
}

// Recorder builds the event recorder, retaining at most limit records (0 =
// unbounded) and counting into reg: nil unless want is set or flightDir
// names a -flight-dir, which is created and receives the black-box dumps.
func Recorder(want bool, limit int, flightDir string, reg *telemetry.Registry) (*telemetry.Recorder, error) {
	if !want && flightDir == "" {
		return nil, nil
	}
	rec := telemetry.NewRecorder(limit)
	rec.SetMetrics(reg)
	if flightDir != "" {
		if err := os.MkdirAll(flightDir, 0o755); err != nil {
			return nil, err
		}
		rec.SetDir(flightDir)
	}
	return rec, nil
}

// Spans is the -spans recorder, nil without a path; WriteSpans writes it
// once, after the last run.
func Spans(path string) *telemetry.SpanRecorder {
	if path == "" {
		return nil
	}
	return telemetry.NewSpanRecorder(0)
}

// WriteSpans writes the -spans file, if one was asked for.
func WriteSpans(path string, spans *telemetry.SpanRecorder, stderr io.Writer) error {
	if path == "" {
		return nil
	}
	if err := WriteFile(path, spans.WriteJSONL); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "spans: %d segment spans written to %s\n", spans.Len(), path)
	return nil
}

// WriteFile creates path and fills it with write, closing it either way.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Programs resolves the guest to run: the input programs of a built-in
// workload at scale, or the one file in args, compiled from paftlang if its
// name ends in .pl and assembled otherwise. Any failure is a usage error.
func Programs(wlName string, scale float64, args []string) ([]*asm.Program, error) {
	if wlName != "" {
		w := workload.Get(wlName)
		if w == nil {
			return nil, Usagef("unknown workload %q (parallaft -list names them)", wlName)
		}
		return w.Gen(scale), nil
	}
	if len(args) != 1 {
		return nil, Usagef("expected exactly one assembly file or .pl source (or -workload)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, usageError{err}
	}
	build := asm.Assemble
	if strings.HasSuffix(args[0], ".pl") {
		build = lang.Compile
	}
	prog, err := build(args[0], string(src))
	if err != nil {
		return nil, usageError{err}
	}
	return []*asm.Program{prog}, nil
}
