// Command paftasm assembles and disassembles guest programs, and can run
// them untraced on the simulated machine for quick iteration.
//
// Usage:
//
//	paftasm prog.pasm                  # assemble + validate, print stats
//	paftasm -d prog.pasm               # disassemble back to text
//	paftasm -run prog.pasm             # assemble and run on a big core
//	paftasm -d -workload 429.mcf       # disassemble a built-in workload
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"parallaft/internal/cli"
	"parallaft/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses argv against a fresh FlagSet,
// executes, and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paftasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		disasm = fs.Bool("d", false, "disassemble the program")
		runIt  = fs.Bool("run", false, "run the program untraced on a big core")
		wlName = fs.String("workload", "", "use a built-in workload instead of a file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	progs, err := cli.Programs(*wlName, 1.0, fs.Args())
	if err != nil {
		return cli.Exit(stderr, "paftasm", err)
	}
	prog := progs[0]

	switch {
	case *disasm:
		fmt.Fprint(stdout, prog.Disassemble())
	case *runIt:
		r := stats.NewRunner()
		r.Seed = 1
		e := r.NewEngine()
		res, err := e.RunBaseline(prog, e.M.BigCores()[0])
		if err != nil {
			return cli.Exit(stderr, "paftasm", err)
		}
		stdout.Write(res.Stdout)
		fmt.Fprintf(stdout, "[exit %d; %d instructions, %d branches, %.3f ms simulated]\n",
			res.ExitCode, res.Instrs, res.Branches, res.WallNs/1e6)
	default:
		fmt.Fprintf(stdout, "%s: %d instructions, %d data bytes, %d BSS bytes, entry %d — OK\n",
			prog.Name, len(prog.Code), len(prog.Data), prog.BSS, prog.Entry)
	}
	return 0
}
