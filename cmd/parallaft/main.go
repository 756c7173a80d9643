// Command parallaft runs a guest program under Parallaft protection (or the
// RAFT baseline, or no protection) on the simulated heterogeneous machine,
// then dumps the statistics block the original artifact prints (Appendix
// A.7). The program is an assembly file, a paftlang source (a name ending in
// .pl, compiled first) or a built-in workload.
//
// Usage:
//
//	parallaft [-mode parallaft|raft|baseline] [-machine apple|intel] prog.pasm
//	parallaft -mode baseline prog.pl       # compile paftlang and run unprotected
//	parallaft -workload 429.mcf            # run a built-in workload instead
//	parallaft -S prog.pl                   # print the guest assembly and exit
//	parallaft -period 2000000 prog.pasm    # slicing period in sim cycles
//	parallaft -workload 429.mcf -export-packets dir/   # emit check packets
//	parallaft -workload 429.mcf -stats-json            # machine-readable stats
//	parallaft -checkers 3 prog.pasm        # main+3 NMR: majority voting
//	parallaft -checkers 3 -diversity none,skid4x,bigcore prog.pasm  # diverse replicas
//	parallaft -workload 429.mcf -farm tcp:host1:9140,tcp:host2:9140 # re-check every
//	                                        # sealed segment on a checkd fleet
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"parallaft/internal/asm"
	"parallaft/internal/checkd"
	"parallaft/internal/checkfarm"
	"parallaft/internal/cli"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/stats"
	"parallaft/internal/telemetry"
	"parallaft/internal/telemetry/profile"
	"parallaft/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings for one invocation.
type options struct {
	mode      string
	machName  string
	wlName    string
	period    float64
	seed      int64
	scale     float64
	list      bool
	disasm    bool
	traceFile string
	traceCap  int
	exportDir string
	statsJSON bool
	spansFile string
	traceOut  string
	flightDir string
	checkers  int
	diversity string
	farm      string
	metrics   string

	profileOut    string
	profileFolded string
	profilePeriod float64
	ledger        bool
	windowsFile   string
	windowMs      float64

	// reg, when non-nil, is the shared registry behind -metrics-addr;
	// otherwise each checking run gets its own.
	reg *telemetry.Registry
	// trace and spans are the invocation's event and lifecycle-span
	// recorders: one each, shared by every program of a multi-input
	// workload and by the farm dispatcher, written once after the last run.
	trace *telemetry.Recorder
	spans *telemetry.SpanRecorder
}

// machines are the -machine presets.
var machines = map[string]func() machine.Config{
	"apple": machine.AppleM2Like,
	"intel": machine.IntelLike,
	"big":   machine.BigOnly,
}

// checkingOnly are the flags that observe or feed the checkers, so they need
// a checking mode.
var checkingOnly = []string{"export-packets", "farm", "trace", "spans", "trace-out",
	"flight-dir", "profile-out", "profile-folded", "ledger", "metric-windows"}

// run is the testable entry point: parses argv against a fresh FlagSet,
// executes, and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parallaft", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.mode, "mode", "parallaft", "execution mode: parallaft, raft, or baseline")
	fs.StringVar(&o.machName, "machine", "apple", "machine preset: apple, intel, or big (big cores only)")
	fs.StringVar(&o.wlName, "workload", "", "run a built-in workload instead of a program file")
	fs.Float64Var(&o.period, "period", 0, "slicing period in sim cycles (0 = default)")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.scale, "scale", 1.0, "workload scale (built-in workloads only)")
	fs.BoolVar(&o.list, "list", false, "list built-in workloads and exit")
	fs.BoolVar(&o.disasm, "S", false, "print the guest assembly of every program the invocation would run, and exit")
	fs.StringVar(&o.traceFile, "trace", "", "write a JSONL trace of runtime decisions to this file")
	fs.IntVar(&o.traceCap, "trace-limit", 0, "keep at most N records of the event stream behind -trace and -trace-out (0 = unbounded); a truncation marker records the overflow")
	fs.StringVar(&o.exportDir, "export-packets", "", "export one check packet per sealed segment into this directory (paftcheckd -verify re-checks them)")
	fs.BoolVar(&o.statsJSON, "stats-json", false, "emit one compact JSON stats object per program instead of the text block")
	fs.StringVar(&o.spansFile, "spans", "", "write one JSONL segment-lifecycle span per retired segment to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a merged Chrome trace-event JSON of every causal-trace stage span (seal through delivery, main plus fleet) to this file")
	fs.StringVar(&o.flightDir, "flight-dir", "", "arm the flight recorder: dump the last 256 records (decisions, spans, frames, notes) plus a telemetry snapshot as JSONL into this directory on node eviction, poison exhaustion or no-quorum votes")
	fs.IntVar(&o.checkers, "checkers", 1, "checker replicas per segment (N > 1 enables NMR majority voting; parallaft mode only)")
	fs.StringVar(&o.diversity, "diversity", "", "comma-separated per-replica substrate presets: none skid2x skid4x quantum bigcore coldcache")
	fs.StringVar(&o.farm, "farm", "", "comma-separated checkd node specs (tcp:host:port or Unix socket paths): re-check every sealed segment on the fleet")
	fs.StringVar(&o.metrics, "metrics-addr", "", "serve Prometheus text metrics on this TCP address at /metrics for the duration of the run")
	fs.StringVar(&o.profileOut, "profile-out", "", "write a gzipped pprof-format sim-clock CPU profile to this file (go tool pprof reads it)")
	fs.StringVar(&o.profileFolded, "profile-folded", "", "write the same profile as folded-stacks text (actor;core;symbol;block count) to this file")
	fs.Float64Var(&o.profilePeriod, "profile-period", 0, "sim cycles between profile samples (0 = default 50000)")
	fs.BoolVar(&o.ledger, "ledger", false, "attribute every simulated cycle and joule to an activity class, verify that no charge went unattributed, and print the overhead breakdown (a \"ledger\" block under -stats-json)")
	fs.StringVar(&o.windowsFile, "metric-windows", "", "write fixed sim-clock-interval snapshots of the metrics registry (counter deltas, gauge levels) as JSONL to this file")
	fs.Float64Var(&o.windowMs, "window-interval-ms", 1.0, "simulated milliseconds per -metric-windows interval")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	return cli.Exit(stderr, "parallaft", o.run(fs, stdout, stderr))
}

// run rejects every usage error before anything is built, then runs the
// invocation's programs in turn on engines and configs from one runner.
func (o *options) run(fs *flag.FlagSet, stdout, stderr io.Writer) error {
	if o.list {
		for _, name := range workload.Names() {
			w := workload.Get(name)
			fmt.Fprintf(stdout, "%-18s [%s] %s\n", w.Name, w.Class, w.Note)
		}
		return nil
	}
	mode, err := cli.Mode(o.mode)
	if err != nil {
		return err
	}
	presets, err := cli.Replicas(o.checkers, o.diversity)
	if err != nil {
		return err
	}
	if err := errors.Join(
		cli.Positive("scale", "workload scale", o.scale, false),
		cli.Positive("period", "cycle count", o.period, true),
		cli.Positive("profile-period", "cycle count", o.profilePeriod, true),
		cli.Positive("window-interval-ms", "interval", o.windowMs, false),
		cli.Positive("trace-limit", "record count", float64(o.traceCap), true),
	); err != nil {
		return err
	}
	if (o.checkers > 1 || len(presets) > 0) && mode != stats.ModeParallaft {
		return cli.Usagef("-checkers > 1 or -diversity requires -mode parallaft (the NMR vote is a state comparison)")
	}
	if mode == stats.ModeBaseline {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(checkingOnly, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return cli.Usagef("%s requires a checking mode (parallaft or raft); baseline runs no checkers, and all of -%s require a checking mode",
				strings.Join(set, " "), strings.Join(checkingOnly, " -"))
		}
	}
	if o.farm != "" && o.exportDir != "" {
		return cli.Usagef("-farm and -export-packets both consume the packet stream; use one")
	}
	if machines[o.machName] == nil {
		return cli.Usagef("unknown machine %q", o.machName)
	}
	progs, err := cli.Programs(o.wlName, o.scale, fs.Args())
	if err != nil {
		return err
	}
	if o.disasm {
		for _, prog := range progs {
			fmt.Fprint(stdout, prog.Disassemble())
		}
		return nil
	}
	// The profile and the metric windows follow one program's simulated
	// clock, which restarts with every program of a multi-input workload.
	if (o.profileOut != "" || o.profileFolded != "" || o.windowsFile != "") && len(progs) > 1 {
		return cli.Usagef("-profile-out, -profile-folded and -metric-windows follow one program; %s runs %d", o.wlName, len(progs))
	}

	if o.metrics != "" {
		o.reg = telemetry.NewRegistry()
		srv, err := cli.ServeMetrics(o.metrics, o.reg, "parallaft", stderr)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	if o.trace, err = cli.Recorder(o.traceFile != "" || o.traceOut != "", o.traceCap, o.flightDir, o.reg); err != nil {
		return err
	}
	o.spans = cli.Spans(o.spansFile)
	tweak := cli.Tweak(o.checkers, presets, o.spans, o.trace)
	r := &stats.Runner{MachineCfg: machines[o.machName], Seed: o.seed, ConfigTweak: func(c *core.Config) {
		tweak(c)
		if o.period > 0 {
			c.SlicePeriodCycles = o.period
		}
	}}
	for _, prog := range progs {
		// Multi-input workloads restart segment numbering per program, so
		// each program gets its own packet directory.
		dir := o.exportDir
		if dir != "" && len(progs) > 1 {
			dir = filepath.Join(dir, prog.Name)
		}
		if err = o.runOne(r, mode, prog, dir, stdout, stderr); err != nil {
			break
		}
	}
	return errors.Join(err, o.writeRecords(stderr))
}

// writeRecords writes what the invocation's recorders hold, after the last
// program has run and its farm has drained, so remote-verify spans that
// arrived in the nodes' verdict frames are in the merge.
func (o *options) writeRecords(stderr io.Writer) error {
	for _, out := range []struct {
		path, done string
		write      func(io.Writer) (int, error)
	}{
		{o.traceFile, "trace: %d events written to %s\n", o.trace.WriteJSONL},
		{o.traceOut, "trace-out: %d stage spans written to %s\n", o.trace.WriteChrome},
	} {
		if out.path == "" {
			continue
		}
		var n int
		err := cli.WriteFile(out.path, func(w io.Writer) (err error) {
			n, err = out.write(w)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, out.done, n, out.path)
	}
	if d := o.trace.Dropped(); d > 0 && o.traceFile != "" {
		fmt.Fprintf(stderr, "trace: %d records dropped by -trace-limit %d\n", d, o.traceCap)
	}
	return cli.WriteSpans(o.spansFile, o.spans, stderr)
}

// runOne runs one program in mode on a fresh engine from r and prints its
// statistics block.
func (o *options) runOne(r *stats.Runner, mode stats.Mode, prog *asm.Program, exportDir string, stdout, stderr io.Writer) error {
	e := r.NewEngine()
	m := e.M
	if mode == stats.ModeBaseline {
		res, err := e.RunBaseline(prog, m.BigCores()[0])
		if err != nil {
			return err
		}
		if o.statsJSON {
			return emitJSON(stdout, map[string]any{"benchmark": prog.Name, "mode": "baseline", "stats": res})
		}
		fmt.Fprintf(stdout, "== %s (baseline on %s) ==\n", prog.Name, m)
		fmt.Fprintf(stdout, "timing.all_wall_time:   %.3f ms\n", res.WallNs/1e6)
		fmt.Fprintf(stdout, "timing.user_time:       %.3f ms\n", res.UserNs/1e6)
		fmt.Fprintf(stdout, "timing.sys_time:        %.3f ms\n", res.SysNs/1e6)
		fmt.Fprintf(stdout, "energy.total:           %.3f mJ\n", res.EnergyJ*1e3)
		fmt.Fprintf(stdout, "instructions:           %d\n", res.Instrs)
		fmt.Fprintf(stdout, "branches:               %d\n", res.Branches)
		fmt.Fprintf(stdout, "exit_code:              %d\n", res.ExitCode)
		stdout.Write(res.Stdout)
		return nil
	}
	cfg := r.RuntimeConfig(mode)
	// Telemetry is observation-only (it consumes no simulated time), so
	// the registry is always on in checking modes; -stats-json carries
	// its snapshot and -metrics-addr shares one registry across programs.
	reg := o.reg
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cfg.Metrics = reg
	o.trace.SetMetrics(reg)
	// The profiler and window sampler are per-run, and so is the ledger:
	// each program gets a fresh machine, so its books restart (a
	// multi-program run takes only the ledger, printed per program).
	var profiler *profile.Recorder
	if o.profileOut != "" || o.profileFolded != "" {
		profiler = profile.NewRecorder(o.profilePeriod)
		profiler.SetMetrics(reg)
		cfg.Profiler = profiler
	}
	var windows *profile.WindowSampler
	if o.windowsFile != "" {
		windows = profile.NewWindowSampler(reg, o.windowMs*1e6, 0)
		cfg.Windows = windows
	}
	var de *packet.DirExporter
	if exportDir != "" {
		var err error
		de, err = packet.NewDirExporter(exportDir, core.PageHashSeed)
		if err != nil {
			return err
		}
		cfg.Export = de.Exporter()
	}
	var fr farmResult
	var drainFarm func()
	if o.farm != "" {
		store := pagestore.New(core.PageHashSeed)
		farm := checkfarm.New(store, checkfarm.Options{Metrics: reg, Trace: o.trace})
		for _, spec := range strings.Split(o.farm, ",") {
			if err := farm.AddNode(strings.TrimSpace(spec)); err != nil {
				farm.Close()
				return err
			}
		}
		cfg.Export = &packet.Exporter{
			Store: store,
			Sink:  func(p *packet.CheckPacket) error { return farm.Submit(p) },
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for v := range farm.Verdicts() {
				fr.Add(v)
			}
		}()
		drainFarm = func() {
			farm.Close()
			<-done
			fr.Nodes = farm.NodeStats()
		}
	}
	st, err := core.NewRuntime(e, cfg).Run(prog)
	if drainFarm != nil {
		drainFarm()
	}
	if err != nil {
		return err
	}
	if de != nil {
		if err := de.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "export: %d packets written to %s\n", de.Count(), exportDir)
	}
	if profiler != nil {
		if o.profileOut != "" {
			if err := cli.WriteFile(o.profileOut, profiler.WritePprof); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "profile: %d samples written to %s\n", profiler.TotalSamples(), o.profileOut)
		}
		if o.profileFolded != "" {
			if err := os.WriteFile(o.profileFolded, []byte(profiler.FoldedStacks()), 0o644); err != nil {
				return err
			}
		}
	}
	if windows != nil {
		if err := cli.WriteFile(o.windowsFile, windows.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "windows: %d metric windows written to %s\n", len(windows.Windows()), o.windowsFile)
	}
	var ledger *profile.Summary
	if o.ledger {
		// The attribution invariant is a correctness gate, not advisory
		// output: an unclassed charge means the breakdown below lies about
		// where the overhead went.
		s := profile.Summarize(e.M, st.AllWallNs)
		if err := s.Reconcile(); err != nil {
			return err
		}
		ledger = &s
	}
	if o.statsJSON {
		obj := map[string]any{
			"benchmark":     st.Benchmark,
			"mode":          o.mode,
			"stats":         st,
			"telemetry":     reg.Snapshot(),
			"trace_dropped": o.trace.Dropped(),
		}
		if o.farm != "" {
			obj["farm"] = fr
		}
		if ledger != nil {
			obj["ledger"] = ledger
		}
		if err := emitJSON(stdout, obj); err != nil {
			return err
		}
		return fr.Err()
	}
	fmt.Fprintf(stdout, "== %s (%s on %s) ==\n", prog.Name, o.mode, m)
	fmt.Fprintf(stdout, "timing.all_wall_time:            %.3f ms\n", st.AllWallNs/1e6)
	fmt.Fprintf(stdout, "timing.main_wall_time:           %.3f ms\n", st.MainWallNs/1e6)
	fmt.Fprintf(stdout, "timing.main_user_time:           %.3f ms\n", st.MainUserNs/1e6)
	fmt.Fprintf(stdout, "timing.main_sys_time:            %.3f ms\n", st.MainSysNs/1e6)
	fmt.Fprintf(stdout, "timing.runtime_work:             %.3f ms\n", st.RuntimeNs/1e6)
	fmt.Fprintf(stdout, "hwmon.energy_total:              %.3f mJ\n", st.EnergyJ*1e3)
	fmt.Fprintf(stdout, "counter.checkpoint_count:        %d\n", st.Checkpoints)
	fmt.Fprintf(stdout, "fixed_interval_slicer.nr_slices: %d\n", st.Slices)
	fmt.Fprintf(stdout, "counter.syscalls_traced:         %d\n", st.SyscallsTraced)
	fmt.Fprintf(stdout, "counter.cow_copies:              %d\n", st.COWCopies)
	fmt.Fprintf(stdout, "counter.dirty_pages_hashed:      %d\n", st.DirtyPagesHashed)
	fmt.Fprintf(stdout, "counter.identity_skips:          %d\n", st.IdentitySkips)
	fmt.Fprintf(stdout, "counter.hash_cache_hits:         %d\n", st.HashCacheHits)
	fmt.Fprintf(stdout, "checker.big_work_fraction:       %.1f%%\n", st.BigWorkFraction()*100)
	if o.checkers > 1 {
		fmt.Fprintf(stdout, "vote.unanimous:                  %d\n", st.VoteUnanimous)
		fmt.Fprintf(stdout, "vote.absorbed_replicas:          %d\n", st.VoteAbsorbed)
		fmt.Fprintf(stdout, "vote.outvoted_reference:         %d\n", st.VoteOutvotedReplicas)
		fmt.Fprintf(stdout, "vote.forward_repairs:            %d\n", st.ForwardRepairs)
		fmt.Fprintf(stdout, "vote.no_quorum:                  %d\n", st.VoteNoQuorum)
	}
	if o.farm != "" {
		fmt.Fprintf(stdout, "farm.verdicts:                   %d ok=%d diverged=%d infra=%d\n",
			fr.Verdicts, fr.OK, fr.Diverged, fr.Infra)
		for _, ns := range fr.Nodes {
			// The stats print after the farm has drained, so Live is
			// false for everyone; what matters is whether the node
			// finished the campaign or was evicted mid-way.
			state := "ok"
			if ns.EvictReason != "" {
				state = "evicted (" + ns.EvictReason + ")"
			}
			fmt.Fprintf(stdout, "farm.node %s: %s verdicts=%d uploads=%d cached=%d\n",
				ns.Addr, state, ns.Verdicts, ns.Uploads, ns.CacheSize)
		}
	}
	if ledger != nil {
		fmt.Fprintf(stdout, "-- overhead ledger (reconciled) --\n%s", ledger.Table())
	}
	fmt.Fprintf(stdout, "exit_code:                       %d\n", st.ExitCode)
	if st.Detected != nil {
		fmt.Fprintf(stdout, "DETECTED ERROR: %v\n", st.Detected)
	}
	stdout.Write(st.Stdout)
	return fr.Err()
}

// farmResult is the -farm campaign summary: one verdict per sealed segment,
// classified, plus the per-node dispatch accounting. It rides the
// -stats-json object under "farm".
type farmResult struct {
	checkd.Tally
	Nodes []checkfarm.NodeStats `json:"nodes"`
}

// emitJSON writes one compact JSON object per line, the machine-readable
// counterpart of the Appendix A.7 text block.
func emitJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
