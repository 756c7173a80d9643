// Compiled: author a workload in paftlang (the repo's small imperative
// language), compile it to the guest ISA, and run it under Parallaft with
// error recovery enabled — a transient checker fault is absorbed without
// disturbing the program.
package main

import (
	"fmt"
	"log"

	"parallaft/internal/core"
	"parallaft/internal/lang"
	"parallaft/internal/machine"
	"parallaft/internal/proc"
	"parallaft/internal/stats"
)

const source = `
// a little sieve of Eratosthenes, written in paftlang
var limit = 10000;
var composite[10000];
var n = 2;
var primes = 0;
while (n < limit) {
    if (composite[n] == 0) {
        primes = primes + 1;
        var k = n * n;
        while (k < limit) {
            composite[k] = 1;
            k = k + n;
        }
    }
    n = n + 1;
}
print("primes below 10000: ");
printnum(primes);
exit(primes & 255);
`

var newStack = (&stats.Runner{MachineCfg: machine.AppleM2Like, Seed: 5}).NewEngine

func main() {
	prog, err := lang.Compile("sieve", source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d-instruction guest program from %d lines of paftlang\n\n",
		len(prog.Code), 22)

	// reference run
	e := newStack()
	base, err := e.RunBaseline(prog, e.M.BigCores()[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %s", base.Stdout)

	// protected run with recovery, plus an injected SEU in a checker
	cfg := core.DefaultConfig()
	cfg.SlicePeriodCycles = 300_000
	cfg.EnableRecovery = true
	injected := false
	primesAddr := prog.Symbols["u_primes"] // the compiled `primes` variable
	cfg.ReplicaHook = func(seg, _ int, c *proc.Process, _ float64) {
		if injected || seg != 1 {
			return
		}
		v, f := c.AS.LoadU64(primesAddr)
		if f != nil {
			return
		}
		c.AS.StoreU64(primesAddr, v^(1<<5)) //nolint:errcheck
		injected = true
	}
	rt := core.NewRuntime(newStack(), cfg)
	st, err := rt.Run(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallaft: %s", st.Stdout)
	fmt.Printf("\nsegments=%d, SEU injected=%v, recovered checker faults=%d, rollbacks=%d, detected=%v\n",
		st.Slices, injected, st.RecoveredCheckerFaults, st.Rollbacks, st.Detected)

	if string(st.Stdout) != string(base.Stdout) {
		log.Fatal("outputs differ")
	}
	fmt.Println("output verified against the baseline")
}
