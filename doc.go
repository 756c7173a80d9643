// Package parallaft is a reproduction, in pure Go, of "Parallaft:
// Runtime-Based CPU Fault Tolerance via Heterogeneous Parallelism"
// (Zhang, Ainsworth, Mukhanov, Jones — CGO 2025).
//
// The paper's runtime supervises real Linux binaries with ptrace on an
// Apple M2; this repository rebuilds the entire stack as a deterministic
// simulation (see DESIGN.md for the substitution table) and implements
// Parallaft — program slicing, copy-on-write checkpointing, execution-point
// record/replay via branch counters and breakpoints, syscall/signal/
// nondeterministic-instruction record and replay, dirty-page hash
// comparison, and checker scheduling with big-core migration and DVFS
// pacing — against that substrate, together with the RAFT baseline the
// paper compares against.
//
// Layout:
//
//	internal/isa                guest instruction set
//	internal/asm                assembler, program builder, disassembler
//	internal/lang               paftlang, a small language compiled to the guest ISA
//	internal/hashx              xxHash64 (state comparison)
//	internal/lazyrand           the simulation's seeded-on-first-draw random streams
//	internal/mem                paged memory: COW, soft-dirty, map counts, ASLR
//	internal/cache              set-associative cache hierarchy model
//	internal/machine            heterogeneous cores, DVFS ladders, energy model
//	internal/proc               interpreter, PMU (branch counters, skid), breakpoints
//	internal/oskernel           simulated OS: syscall models, files, signals
//	internal/sim                co-simulation engine, contention, baseline runner
//	internal/compare            dirty-page discovery and page compare for state comparison
//	internal/core               Parallaft itself (and the RAFT configuration)
//	internal/packet             portable check packets: wire format, export
//	internal/pagestore          content-addressed chunk store for checkpoint pages
//	internal/checkd             offloaded checking service: executor, protocol, sessions
//	internal/checkfarm          check packets sharded over a fleet of checkd nodes
//	internal/telemetry          metrics registry, lifecycle spans, event recorder
//	internal/telemetry/profile  sim-clock profiler, overhead ledger, metric windows
//	internal/inject             §5.6 fault-injection campaigns
//	internal/campaign           parallel, deterministic pool of independent runs
//	internal/workload           synthetic SPEC CPU2006 analogues + stress tests
//	internal/stats              experiment harness: every table and figure
//	internal/cli                the flag layer the commands share
//	cmd/parallaft               run one program (.pasm, .pl or built-in) under protection
//	cmd/paftbench               regenerate the paper's tables and figures
//	cmd/paftcheckd              checking daemon: re-check exported packets, serve a farm node
//
// The benchmarks in bench_test.go regenerate each table and figure at
// reduced scale; cmd/paftbench runs them at full scale.
package parallaft
