// Command paftcheckd is the offloaded checking daemon: it re-runs
// Parallaft check packets (exported by `parallaft -export-packets dir/`)
// against a fresh simulated substrate and reports one verdict per segment,
// identical to what the in-process checkers would have decided.
//
// Usage:
//
//	paftcheckd -verify dir/                 # check an exported directory in-process
//	paftcheckd -listen /run/paftcheckd.sock # serve the checking service on a Unix socket
//	paftcheckd -listen tcp:0.0.0.0:9140     # serve over TCP, e.g. as one farm node
//	paftcheckd -verify dir/ -connect /run/paftcheckd.sock   # check via a running daemon
//	paftcheckd -verify dir/ -connect tcp:host:9140          # same, over TCP
//
// Exit codes for -verify: 0 all segments pass, 1 a divergence was detected,
// 3 infrastructure failure (missing chunks, protocol errors).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"parallaft/internal/checkd"
	"parallaft/internal/checkfarm"
	"parallaft/internal/cli"
	"parallaft/internal/packet"
	"parallaft/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paftcheckd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		verifyDir = fs.String("verify", "", "check every packet in this exported directory")
		listen    = fs.String("listen", "", "serve the checking service on this endpoint: a Unix socket path, or tcp:host:port")
		connect   = fs.String("connect", "", "with -verify: send the packets to a daemon at this endpoint (Unix socket path or tcp:host:port) instead of checking in-process")
		workers   = fs.Int("workers", 4, "concurrent replay workers")
		quiet     = fs.Bool("quiet", false, "print only failing verdicts and the summary")
		metrics   = fs.String("metrics-addr", "", "with -listen: serve Prometheus text metrics on this TCP address at /metrics (e.g. 127.0.0.1:9141)")
		flightDir = fs.String("flight-dir", "", "with -listen: arm the flight recorder and dump it as JSONL into this directory on SIGQUIT")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	switch {
	case *flightDir != "" && *listen == "":
		return cli.Exit(stderr, "paftcheckd", cli.Usagef("-flight-dir requires -listen (the flight recorder is a daemon black box)"))
	case *metrics != "" && *listen == "":
		return cli.Exit(stderr, "paftcheckd", cli.Usagef("-metrics-addr requires -listen (only the daemon serves metrics)"))
	case *connect != "" && *verifyDir == "":
		return cli.Exit(stderr, "paftcheckd", cli.Usagef("-connect requires -verify (it names the daemon that checks the directory)"))
	}
	if err := cli.Positive("workers", "worker count", float64(*workers), false); err != nil {
		return cli.Exit(stderr, "paftcheckd", err)
	}
	opts := checkd.Options{Workers: *workers}

	switch {
	case *listen != "":
		return serve(*listen, *metrics, *flightDir, opts, stderr)
	case *verifyDir != "":
		return verify(*verifyDir, *connect, opts, *quiet, stdout, stderr)
	default:
		fmt.Fprintln(stderr, "paftcheckd: one of -verify or -listen is required")
		fs.Usage()
		return 2
	}
}

// shutdownHook, when non-nil, triggers the same graceful drain as
// SIGINT/SIGTERM when closed. Tests use it to stop serve without
// signalling the whole process.
var shutdownHook chan struct{}

// listenHook, when non-nil, receives the bound listener address. Tests use
// it to learn the port a "tcp:host:0" spec resolved to.
var listenHook chan net.Addr

// flightHook, when non-nil, triggers a flight-recorder dump exactly like
// SIGQUIT. Tests use it instead of signalling the whole process.
var flightHook chan struct{}

// lockedWriter serializes Write calls: the flight-dump goroutine reports to
// stderr concurrently with the serve loop, which is fine on os.Stderr but a
// data race on the bytes.Buffer the tests pass in. fmt formats into one
// Write per call, so lines stay atomic.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully:
// in-flight connections finish their verdict streams before exit. With
// metricsAddr set, a telemetry registry is shared by every connection's
// executor and served as Prometheus text on http://metricsAddr/metrics
// until serve returns. With flightDir set, the daemon keeps an event
// recorder of recent frames and verify spans and dumps its black box there
// on SIGQUIT — without exiting, so a wedged fleet can be black-boxed in
// place.
func serve(sock, metricsAddr, flightDir string, opts checkd.Options, stderr io.Writer) int {
	stderr = &lockedWriter{w: stderr}
	if metricsAddr != "" {
		opts.Metrics = telemetry.NewRegistry()
		msrv, err := cli.ServeMetrics(metricsAddr, opts.Metrics, "paftcheckd", stderr)
		if err != nil {
			return cli.Exit(stderr, "paftcheckd", err)
		}
		defer msrv.Close()
	}
	// Nothing reads a daemon's retained records, only its ring; the fixed
	// limit keeps a long-lived daemon's recorder bounded.
	var err error
	if opts.Trace, err = cli.Recorder(false, telemetry.RingSize, flightDir, opts.Metrics); err != nil {
		return cli.Exit(stderr, "paftcheckd", err)
	}
	// A stale Unix socket from a previous daemon would block the listen;
	// TCP endpoints have no such residue.
	if !checkfarm.IsTCP(sock) {
		os.Remove(sock)
	}
	ln, err := checkfarm.Listen(sock)
	if err != nil {
		fmt.Fprintln(stderr, "paftcheckd:", err)
		return 1
	}

	if flightDir != "" {
		dump := func() {
			opts.Trace.Note("sigquit", "operator-requested flight dump")
			path, err := opts.Trace.DumpToDir("checkd", "sigquit", opts.Metrics)
			if err != nil {
				fmt.Fprintln(stderr, "paftcheckd: flight dump:", err)
				return
			}
			fmt.Fprintf(stderr, "paftcheckd: flight recorder dumped to %s\n", path)
		}
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		hook := flightHook // capture: tests reset the package var after serve returns
		go func() {
			for {
				select {
				case <-quitc:
				case <-hook:
				}
				dump()
			}
		}()
	}
	srv := checkd.NewServer(opts)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	// The resolved address matters for tcp:host:0 specs.
	fmt.Fprintf(stderr, "paftcheckd: listening on %s\n", ln.Addr())
	if listenHook != nil {
		listenHook <- ln.Addr()
	}

	drain := func(why string) int {
		fmt.Fprintf(stderr, "paftcheckd: %s, draining\n", why)
		srv.Shutdown()
		<-done
		if !checkfarm.IsTCP(sock) {
			os.Remove(sock)
		}
		return 0
	}
	select {
	case sig := <-sigc:
		return drain(sig.String())
	case <-shutdownHook:
		return drain("shutdown requested")
	case err := <-done:
		if err != nil {
			fmt.Fprintln(stderr, "paftcheckd:", err)
			return 1
		}
		return 0
	}
}

// verify checks one exported directory — either a single export (it holds
// pages.store) or a multi-program export (one subdirectory per program).
func verify(dir, connect string, opts checkd.Options, quiet bool, stdout, stderr io.Writer) int {
	dirs, err := exportDirs(dir)
	if err != nil {
		fmt.Fprintln(stderr, "paftcheckd:", err)
		return 3
	}

	var t checkd.Tally
	for _, d := range dirs {
		store, pkts, err := packet.ReadDir(d)
		if err != nil {
			fmt.Fprintf(stderr, "paftcheckd: %s: %v\n", d, err)
			return 3
		}
		var verdicts []checkd.Verdict
		if connect == "" {
			verdicts, err = checkd.CheckAll(store, pkts, opts)
		} else if conn, derr := checkfarm.Dial(connect); derr != nil {
			fmt.Fprintln(stderr, "paftcheckd:", derr)
			return 3
		} else {
			verdicts, err = checkd.CheckOver(conn, store, pkts)
			conn.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "paftcheckd: %s: %v\n", d, err)
			return 3
		}
		for _, v := range verdicts {
			t.Add(v)
			switch {
			case v.Infra != "":
				fmt.Fprintf(stdout, "INFRA %v\n", v)
			case !v.OK:
				fmt.Fprintf(stdout, "FAIL  %v\n", v)
			case !quiet:
				fmt.Fprintf(stdout, "ok    %v\n", v)
			}
		}
	}
	fmt.Fprintf(stdout, "paftcheckd: %d segment(s) passed, %d diverged\n", t.OK, t.Diverged)
	switch {
	case t.Infra > 0:
		return 3
	case t.Diverged > 0:
		return 1
	}
	return 0
}

// exportDirs resolves a -verify argument to concrete export directories.
func exportDirs(dir string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(dir, packet.StoreName)); err == nil {
		return []string{dir}, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(sub, packet.StoreName)); err == nil {
			dirs = append(dirs, sub)
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("%s: no %s found (not an export directory?)", dir, packet.StoreName)
	}
	sort.Strings(dirs)
	return dirs, nil
}
