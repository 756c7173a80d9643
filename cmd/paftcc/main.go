// Command paftcc compiles paftlang programs to the guest ISA and
// optionally runs them — unprotected, under Parallaft, or under the RAFT
// baseline.
//
// Usage:
//
//	paftcc prog.pl                  # compile + validate
//	paftcc -S prog.pl               # emit guest assembly
//	paftcc -run prog.pl             # compile and run unprotected
//	paftcc -run -mode parallaft prog.pl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"parallaft/internal/cli"
	"parallaft/internal/core"
	"parallaft/internal/lang"
	"parallaft/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses argv against a fresh FlagSet,
// executes, and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paftcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		emitAsm = fs.Bool("S", false, "emit guest assembly instead of running")
		runProg = fs.Bool("run", false, "run the compiled program")
		mode    = fs.String("mode", "baseline", "execution mode with -run: baseline, parallaft, raft")
		seed    = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	m, err := cli.Mode(*mode)
	if err != nil {
		return cli.Exit(stderr, "paftcc", err)
	}
	if fs.NArg() != 1 {
		return cli.Exit(stderr, "paftcc", cli.Usagef("expected exactly one source file"))
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return cli.Exit(stderr, "paftcc", cli.Usagef("%v", err))
	}
	prog, err := lang.Compile(fs.Arg(0), string(src))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	r := stats.NewRunner()
	r.Seed = *seed
	switch {
	case *emitAsm:
		fmt.Fprint(stdout, prog.Disassemble())
	case *runProg && m == stats.ModeBaseline:
		e := r.NewEngine()
		res, err := e.RunBaseline(prog, e.M.BigCores()[0])
		if err != nil {
			return cli.Exit(stderr, "paftcc", err)
		}
		stdout.Write(res.Stdout)
		fmt.Fprintf(stdout, "[exit %d; %.3f ms simulated]\n", res.ExitCode, res.WallNs/1e6)
	case *runProg:
		st, err := core.NewRuntime(r.NewEngine(), r.RuntimeConfig(m)).Run(prog)
		if err != nil {
			return cli.Exit(stderr, "paftcc", err)
		}
		stdout.Write(st.Stdout)
		fmt.Fprintf(stdout, "[exit %d; %d segments; detected=%v]\n", st.ExitCode, st.Slices, st.Detected)
	default:
		fmt.Fprintf(stdout, "%s: %d instructions, %d data bytes — OK\n",
			prog.Name, len(prog.Code), len(prog.Data))
	}
	return 0
}
