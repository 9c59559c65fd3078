# Development targets. `make check` is the CI gate: vet + race-detector
# tests across every package.

GO ?= go

.PHONY: build vet test race race-borrow check soak bench bench-json bench-workloads bench-e2e bench-e2e-test bench-gate examples

build:
	$(GO) build ./...

# benchmark/ is its own module, which `go vet ./...` at the root does not
# reach; it links the root package and four internal ones.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: vet race

# The tests of the fabric's ownership rule (Send and a Handler borrow
# msg.Payload), twenty times over: a reuse race shows on some schedules only.
race-borrow:
	$(GO) test -race -count=20 -run 'Borrow|TestMemorySendMatchesReference' ./internal/transport ./internal/cluster

# The process-level crash/recovery soak: three real volleyd shard
# processes over TCP, kill -9 the task owner, and require a warm takeover
# seeded from the replicated allowance snapshot. Writes a recovery-time
# summary to SOAK_recovery.json.
soak:
	VOLLEY_SOAK=1 VOLLEY_SOAK_OUT=$(CURDIR)/SOAK_recovery.json \
		$(GO) test -race -run TestShardSoakKill9 -v -timeout 90s ./cmd/volleyd

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Regenerate the committed figure contract: sampling ratios and
# mis-detection rates of every headline figure on the quick preset. The file
# is a pure function of the source (no clock, no host, no worker count);
# TestCommittedContractsRegenerate compares it byte for byte in `make check`.
bench-json:
	$(GO) run ./cmd/volleybench -preset quick -json BENCH_quick.json

# Run the workload families (entropy-of-flow DDoS detection and the
# multi-tenant SLO colocation with correlation-gated monitoring) end to
# end on the quick preset and snapshot the savings-vs-misdetection curves
# to BENCH_workloads.json, the second committed contract (byte-compared like
# BENCH_quick.json). The headline gates, held by TestWriteWorkloadBenchJSON:
# Volley beats the uniform baseline at equal misdetection on every entropy
# point, and the gated tenant run keeps episode recall >= 0.7 while cutting
# sampling cost.
bench-workloads:
	$(GO) run ./cmd/volleybench -preset quick -workloadjson BENCH_workloads.json

# The end-to-end benchmark through a real volleyd (BENCHMARK.json,
# benchmark/README.md): four workloads, every metric printed by name. For
# one workload, repeats, traces or comparisons call benchmark/run.sh with
# the flags its README lists.
bench-e2e:
	bash benchmark/run.sh

# The benchmark as a gate: run all four workloads three times from a clean
# export of BASE and three times from this tree (each builds its own volleyd
# with the harness in its own checkout, which a gated change leaves alone),
# then compare. run.sh -compare exits 1 when any end-to-end metric is WORSE
# than BASE by more than its bound in BENCHMARK.json; a metric whose runs
# spread wider than the difference reads "unresolved" and does not fail.
# The export is removed once it has run; both result files stay in
# .bench_build/ for CI to upload.
BASE ?= HEAD^
bench-gate:
	rm -rf .bench_build/base && mkdir -p .bench_build/base
	git archive $(BASE) | tar -x -C .bench_build/base
	cd .bench_build/base && bash benchmark/run.sh -repeat 3 -out $(CURDIR)/.bench_build/gate_base.json >/dev/null
	rm -rf .bench_build/base
	bash benchmark/run.sh -repeat 3 -out .bench_build/gate_head.json >/dev/null
	bash benchmark/run.sh -compare .bench_build/gate_base.json .bench_build/gate_head.json

# The benchmark harness is a module of its own, so `go test ./...` at the
# root does not reach its tests.
bench-e2e-test:
	cd benchmark && $(GO) test ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ddos
	$(GO) run ./examples/webapp
	$(GO) run ./examples/memfloor
	$(GO) run ./examples/tcpcluster
	$(GO) run ./examples/cluster
