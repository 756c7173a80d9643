# Verification targets. `make check` is the full gate: static analysis plus
# the race-enabled test sweep (the campaign engine fans simulations out
# across goroutines, so races are first-class failures here).

GO ?= go

.PHONY: check build vet test race race-short bench bench-harness alloc-guard golden nmr-golden telemetry-golden trace-golden farm-golden profile-golden farm-soak fuzz-smoke offload-roundtrip loc

check: vet golden nmr-golden telemetry-golden trace-golden farm-golden profile-golden alloc-guard bench-harness fuzz-smoke race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sim-heavy comparisons are ~6x slower under the race detector; this is
# the quick pre-push variant (full coverage of the campaign pool included).
race-short:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/campaign ./internal/inject

# Golden byte-identical-output tests: the simulated comparison accounting
# (dirty pages, hashed bytes, experiment tables) is pinned byte for byte;
# host-side comparison optimisations must not move it. Regenerate with
# `go test <pkg> -run Golden -update` after an intentional model change.
golden:
	$(GO) test ./internal/core ./internal/stats ./internal/packet ./internal/checkd -run 'Golden'

# The main+3 NMR demonstration campaign, pinned byte for byte: the clean run
# is unanimous, an injected checker SEU is absorbed in place, and an
# injected main fault is repaired by a forward state copy — all with zero
# rollbacks charged and the program output intact. Regenerate with
# `go test ./internal/stats -run GoldenNMR -update`.
nmr-golden:
	$(GO) test ./internal/stats -run 'GoldenNMR'

# Telemetry must be as deterministic as the simulation it observes: the
# snapshot for one fixed workload is pinned byte for byte, alongside the
# metric/span naming lint. Regenerate with
# `go test ./cmd/parallaft -run TestTelemetryGolden -update`.
telemetry-golden:
	$(GO) test ./cmd/parallaft -run 'TestTelemetryGolden'
	$(GO) test ./internal/telemetry -run 'Lint|Total'

# The merged causal trace of one fixed 3-node farm campaign, projected to
# its deterministic skeleton (wall clock stripped, node assignment collapsed
# to the actor class): every sealed segment must show one complete
# seal→delivery chain under its deterministic trace ID. Regenerate with
# `go test ./cmd/parallaft -run TestTraceGolden -update`.
trace-golden:
	$(GO) test ./cmd/parallaft -run 'TestTraceGolden'

# The check farm's acceptance gate: the whole workload suite's packets,
# sharded over three checkd nodes with one killed and one joined
# mid-campaign, must match the in-process checker byte for byte with every
# shared chunk crossing each node's wire at most once. Runs without -race
# (the full-suite double replay carries a !race build tag); the race-enabled
# soak below covers the same failover machinery at race-detector size.
# Regenerate with `go test ./internal/checkfarm -run Golden -update`.
farm-golden:
	$(GO) test ./internal/checkfarm -run 'TestGoldenFarmParity'

# The sampling profiler's folded stacks and the overhead-attribution ledger
# for one fixed workload, pinned byte for byte (host wall-clock stages zeroed
# to their deterministic skeleton), plus the exact reconciliation invariant:
# per-activity sums must equal the machine's sim-time and energy books bit
# for bit. Regenerate the goldens with
# `go test ./cmd/parallaft -run TestProfileGolden -update`.
profile-golden:
	$(GO) test ./cmd/parallaft -run 'TestProfileGolden'
	$(GO) test ./internal/core ./internal/stats -run 'Reconcile' -short

# Race-enabled soak of the offload path, daemon and dispatcher: every checkd
# and checkfarm test ten times over, the kill/restart/rejoin campaigns with
# their exactly-once, in-order verdicts included. It has to stay green beside
# a CPU hog; a test that passes only on an idle box is a bug in the test.
farm-soak:
	$(GO) test -race -count=10 -timeout 30m ./internal/checkd ./internal/checkfarm

# Short fuzz of the check-packet codec: Decode must never panic, and every
# accepted input must re-encode byte-identically (canonical wire format).
fuzz-smoke:
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzPacketRoundTrip -fuzztime 5s

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

# Allocation pins for the hot paths: zero for interpreter dispatch, the
# steady-state comparator and tracing's disabled path, and no page-sized
# buffers in a warm checkd worker's start-state rebuild. Run without -race:
# the detector's own instrumentation allocates, so the guard tests carry a
# !race build tag.
alloc-guard:
	$(GO) test ./internal/proc ./internal/compare ./internal/checkd ./internal/telemetry ./internal/telemetry/profile -run 'AllocFree' -v

# The tracked size figure (ROADMAP: it should go down): non-test Go lines
# outside benchmark/, which is counted on its own.
loc:
	@git ls-files '*.go' | grep -v -e '^benchmark/' -e '_test\.go$$' | xargs cat | wc -l
