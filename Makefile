# Verification targets. `make check` is the full gate: static analysis plus
# the race-enabled test sweep (the campaign engine fans simulations out
# across goroutines, so races are first-class failures here).

GO ?= go

.PHONY: check build vet test race race-short bench bench-harness alloc-guard golden farm-soak fuzz-smoke offload-roundtrip loc gate-time

check: vet golden alloc-guard bench-harness fuzz-smoke race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sim-heavy comparisons are ~6x slower under the race detector; this is
# the quick pre-push variant (full coverage of the campaign pool and the
# injection campaign included, and core's retained segments re-checked
# beside their run).
race-short:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/campaign ./internal/inject && $(GO) test -race -run 'Retain' ./internal/core

# Everything pinned byte for byte, one row per kind of pin: a -run pattern and
# the packages it selects tests in.
#   Golden     the simulated books and what is derived from them, which host-side
#              optimisations must not move: per-segment comparison accounting
#              (core), the experiment tables, the main+3 NMR campaign and the
#              figure-10 injection campaign trial by trial (stats),
#              the packet wire format, offload parity with the in-process checker
#              (checkd), the whole suite sharded over a three-node farm with one
#              node killed and one joined (checkfarm; it carries a !race tag, the
#              race-enabled soak below covers the same failover at race-detector
#              size), and for one fixed run each the telemetry snapshot, the causal
#              trace's deterministic skeleton, the profiler's folded stacks plus
#              overhead ledger, and the decision stream plus lifecycle spans of a
#              main+3 run (cmd/parallaft).
#   Lint|Total the metric/span naming lint that keeps the telemetry golden honest.
#   Reconcile  the ledger's exact invariant: no charge of the machine's books is
#              unattributed (and the classes sum to the cores' books up to float
#              reassociation), over clean, recovery and NMR runs and the suite.
# Regenerate a golden after an intentional model change by running its package
# with `-run <TestName> -update`; review the testdata/ diff like code.
golden:
	$(GO) test -run 'Golden' ./internal/core ./internal/stats ./internal/packet ./internal/checkd ./internal/checkfarm ./cmd/parallaft
	$(GO) test -run 'Lint|Total' ./internal/telemetry
	$(GO) test -run 'Reconcile' -short ./internal/core ./internal/stats

# Race-enabled soak of the offload path, daemon and dispatcher: every checkd
# and checkfarm test ten times over, the kill/restart/rejoin campaigns with
# their exactly-once, in-order verdicts included. It has to stay green beside
# a CPU hog; a test that passes only on an idle box is a bug in the test.
farm-soak:
	$(GO) test -race -count=10 -timeout 30m ./internal/checkd ./internal/checkfarm

# Short fuzz of the code that reads bytes from outside the process. The
# check-packet codec: Decode must never panic, and every accepted input must
# re-encode byte-identically (canonical wire format). The client session:
# whatever a server sends, it ends in 'D' or a classified error, never a hang.
# A checker's intake (decode, admit, start-state rebuild): a typed rejection or
# an address space mapping exactly its VMAs' pages, with every frame the
# checker keeps back at its own reference after Release. (The session's replies
# go through encoding/json, a rebuild through the runtime's maps, and Encode
# through a sync.Pool of coders that may or may not hand back a warm one; all
# three make coverage flicker from run to run. The fuzzer's input minimiser
# never settles on that and would eat the whole five seconds, so it is off for
# all three.)
fuzz-smoke:
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzPacketRoundTrip -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/checkd -run '^$$' -fuzz FuzzSessionRead -fuzztime 5s -fuzzminimizetime 0
	$(GO) test ./internal/checkd -run '^$$' -fuzz FuzzRebuildStartState -fuzztime 5s -fuzzminimizetime 0

# End-to-end offload pipeline through the real binaries: export packets from
# a protected run, then re-check them with the daemon CLI.
offload-roundtrip:
	rm -rf /tmp/paft-packets && \
	$(GO) run ./cmd/parallaft -workload 458.sjeng -scale 0.05 -export-packets /tmp/paft-packets >/dev/null && \
	$(GO) run ./cmd/paftcheckd -verify /tmp/paft-packets -quiet

bench:
	$(GO) test -bench=. -benchmem ./...

# The host-performance benchmark (BENCHMARK.json, benchmark/README.md) is a
# module of its own, outside `go test ./...`; this keeps the yardstick's own
# unit tests and its tiny-size smoke of every workload inside the gate.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test .

# Allocation pins for the hot paths: zero for interpreter dispatch with and
# without a machine, a core's per-charge accounting (time and activity books), the
# steady-state comparator, a steady-state one-replica vote (every segment end
# of the paper's design) and the event recorder's nil and over-limit paths
# (every record method), and no page-sized buffers in a warm
# checkd worker's start-state rebuild or in a steady-state copy-on-write (its
# frame comes from mem's free list). Run without -race:
# the detector's own instrumentation allocates, so the guard tests carry a
# !race build tag.
alloc-guard:
	$(GO) test ./internal/mem ./internal/proc ./internal/machine ./internal/compare ./internal/checkd ./internal/telemetry ./internal/telemetry/profile -run 'AllocFree|AllocationFree' -v

# The tracked size figure (ROADMAP: it should go down): non-test Go lines
# outside benchmark/, which is counted on its own.
loc:
	@git ls-files '*.go' | grep -v -e '^benchmark/' -e '_test\.go$$' | xargs cat | wc -l

# Where the gate's wall time goes: every top-level test of `go test ./...`,
# run uncached, as "seconds result package test", slowest first.
gate-time:
	@$(GO) test -json -count=1 ./... 2>/dev/null | awk ' \
		/"Action":"(pass|fail)"/ && /"Test":"[^"\/]*"/ { \
			match($$0, /"Package":"[^"]*"/); pkg = substr($$0, RSTART + 11, RLENGTH - 12); \
			match($$0, /"Test":"[^"]*"/); test = substr($$0, RSTART + 8, RLENGTH - 9); \
			match($$0, /"Action":"[a-z]*"/); res = substr($$0, RSTART + 10, RLENGTH - 11); \
			match($$0, /"Elapsed":[0-9.]+/); el = substr($$0, RSTART + 10, RLENGTH - 10); \
			printf "%8.2f  %-4s  %s  %s\n", el, res, pkg, test }' | sort -rn
