# Build / verify entry points. `make ci` is the gate: formatting, build, vet,
# tests, the mutant table, the race detector over the parallel engine, and a
# benchmark smoke.

GO ?= go

# Packages owning the parallel compute layer and its parity tests; the race
# target drills into these (the full suite under -race is race-all, which
# retrains every eval model and takes tens of minutes).
PARALLEL_PKGS = ./internal/parallel ./internal/tensor ./internal/nn \
                ./internal/shapley ./internal/detect ./internal/av \
                ./internal/server ./internal/features ./internal/gateway \
                ./internal/faultinject ./internal/engine ./internal/analysis \
                ./internal/tenant ./internal/telemetry

# BENCH_N.json names follow the PR sequence and are append-only history:
# benchjson leaves an existing trajectory file untouched (and still exits 0
# once any gate has passed), so a new run bumps the number (or passes
# FORCE_BENCH=1 to regenerate in place).
BENCH_JSON ?= BENCH_4.json
SERVE_BENCH_JSON ?= BENCH_5.json
CLUSTER_BENCH_JSON ?= BENCH_6.json
RELOAD_BENCH_JSON ?= BENCH_7.json
LINT_BENCH_JSON ?= BENCH_8.json
SCENARIO_BENCH_JSON ?= BENCH_9.json
BENCHJSON_FORCE = $(if $(FORCE_BENCH),-force,)

.PHONY: all fmt build vet lint lint-bench test race race-all bench bench-full \
        bench-json quant-gate alloc serve-smoke serve-faults reload-smoke \
        cluster-smoke scenario-gate perfbench mutants ci

all: build

# fmt fails when any tracked Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

build:
	$(GO) build ./...

# vet also covers the benchmark module (perfbench/, its own Go module, which
# ./... does not reach), so a program change that breaks a name perfbench
# uses fails here rather than at the end of ci or in a benchmark run.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

# lint runs the repo's own invariant analyzers (internal/analysis via
# cmd/mpass-lint): goroutine discipline, weight-mutation guards,
# determinism, typed atomics, bounded serving queues, context threading
# and the //mpass:zeroalloc pragma. Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/mpass-lint ./...

# lint-bench gates lint cost: a run of All() over the loaded tree must stay
# within 2x of a run of the seven analyzers BenchmarkLintBaseline pins by
# name (ns(baseline)/ns(full) >= 0.5), so it catches an analyzer added to
# All() beyond those seven that more than doubles the run. Writes
# $(LINT_BENCH_JSON) on first run (append-only; FORCE_BENCH=1 regenerates).
lint-bench:
	$(GO) test -run '^$$' -bench 'Lint(Baseline|Full)$$' -benchtime=3x -count=1 \
		./internal/analysis | $(GO) run ./cmd/benchjson $(BENCHJSON_FORCE) \
		-gate 'BenchmarkLintBaseline,BenchmarkLintFull,0.5' -out $(LINT_BENCH_JSON)

test:
	$(GO) test ./...

# mutants runs the mutant table (internal/mutants): each row copies the tree,
# applies one bug-shaped edit and runs the one gate that must fail on it; a
# row whose gate passes, or whose snippet does not match exactly once, fails.
# Measured on 2 vCPUs: 92 s when the -trimpath build cache is cold, 14-30 s
# warm. Budget: 5 minutes, enforced by -timeout.
mutants:
	$(GO) test -tags mutants -count=1 -timeout 5m ./internal/mutants

race:
	$(GO) test -race -count=1 $(PARALLEL_PKGS)

race-all:
	$(GO) test -race -count=1 ./...

# bench is the quick smoke: the data-parallel training step across worker
# counts, then one pass of each benchmark that reaches the trained suite
# through its engine set (named-engine lookup, set-wide quant switch,
# known-model ensemble), so they run in CI rather than only compile.
bench:
	$(GO) test -run '^$$' -bench 'TrainBatchParallel' -benchtime=3x -benchmem .
	$(GO) test -run '^$$' \
		-bench 'DetectorPredict|MalGCGPredict$$|StreamScore$$|InputGradient$$|ShapleySample$$|MPassSingleAttack$$|ScoreBatch$$|EnsembleAblation$$' \
		-benchtime 1x -count=1 .

# bench-full sweeps every micro- and experiment benchmark (sets up the full
# evaluation suite; expect minutes).
bench-full:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-json runs the inference-engine benchmarks and a serving-layer load
# run (scenarios/serve-bench.json), writing machine-readable reports for
# regression diffing.
bench-json:
	$(GO) test -run '^$$' \
		-bench 'DetectorPredict$$|DetectorPredictQuant$$|MalGCGPredict$$|StreamScore$$|InputGradient$$|ShapleySample$$' \
		-benchmem -count=1 . | $(GO) run ./cmd/benchjson $(BENCHJSON_FORCE) -out $(BENCH_JSON)
	FORCE_BENCH=$(FORCE_BENCH) sh scripts/drill.sh bench $(SERVE_BENCH_JSON)

# quant-gate is the fixed-point speedup gate: the int32 quantized table
# path must beat the float64 table path by >= 1.3x, measured in a single
# `go test -bench` run on the serving-size network so machine noise
# cancels. (The matching accuracy gates — <= 1e-6 score deviation and zero
# label flips on the eval corpus — are ordinary tests in internal/nn and
# internal/detect.)
quant-gate:
	$(GO) test -run '^$$' -bench 'PredictTable(Float|Quant32)$$' -count=1 \
		./internal/nn | $(GO) run ./cmd/benchjson \
		-gate 'BenchmarkPredictTableFloat,BenchmarkPredictTableQuant32,1.3' >/dev/null

# alloc is the allocation-regression gate: the scoring and gradient hot
# paths — float, quantized, and streaming — must stay zero-allocation in
# steady state.
alloc:
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/nn

# The serving drills. Each boots its topology with scripts/drill.sh and
# replays scenarios/*.json through mpass-load, which exits non-zero on any
# threshold violation or /metrics disagreement; every daemon must then
# drain cleanly on SIGTERM. Drills given a BENCH file write it on first
# run (append-only; FORCE_BENCH=1 regenerates).
#
# serve-smoke: one int32-quantized replica; a scan burst, an attack job and
# a streamed upload (serve-smoke.json).
serve-smoke:
	sh scripts/drill.sh smoke

# serve-faults: one replica with deterministic oracle fault injection
# (hangs, transient errors, latency); every attack job must still reach a
# terminal state and the drain stay within its deadline (serve-faults.json).
serve-faults:
	sh scripts/drill.sh faults

# reload-smoke: the zero-downtime hot-reload drill. Three model swaps fire
# from inside a scan burst; every swap must certify and land, every scan
# response carry a generation the server really served, and /healthz and
# /metrics agree with the last swap (serve-reload.json).
reload-smoke:
	FORCE_BENCH=$(FORCE_BENCH) sh scripts/drill.sh reload $(RELOAD_BENCH_JSON)

# cluster-smoke: 3 replicas behind mpass-gateway. A single-replica burst
# against the same burst through the gateway (host-aware speedup gate:
# 2.5x on >= 4 CPUs, a sanity bound on smaller hosts) with the
# shard-affinity gate (per-replica cache-hit ratio >= 0.9, misses <= 2x
# the sample count), then a kill drill: SIGKILL one replica and require
# zero failed scans while the ring re-shards (cluster-*.json).
cluster-smoke:
	FORCE_BENCH=$(FORCE_BENCH) sh scripts/drill.sh cluster $(CLUSTER_BENCH_JSON)

# scenario-gate: 2 replicas with the scenarios/tenants.json allowlist
# behind the gateway. A negative drill first proves a broken threshold
# (1ns p99) exits non-zero; then noisy-neighbor.json must meet its p99,
# shed-rate, fairness, correctness and Retry-After gates; then a SIGHUP
# drill proves the allowlist reload keeps auth closed (auth-*.json).
scenario-gate:
	FORCE_BENCH=$(FORCE_BENCH) sh scripts/drill.sh scenario $(SCENARIO_BENCH_JSON)

# perfbench builds, vets and unit-tests the benchmark module (perfbench/,
# its own Go module), so a program change that breaks what the benchmark
# uses fails here rather than in a benchmark run. It then runs the
# attack-mix workload once (~40 s), an end-to-end audit of the oracle path:
# the run exits non-zero on a wrong scan score or an adversarial example
# whose sandbox re-check fails.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .
	bash perfbench/run.sh --workload attack-mix --seed 1 --seconds 16 --trace 0

ci: fmt build vet lint lint-bench test mutants race alloc bench quant-gate serve-smoke serve-faults reload-smoke cluster-smoke scenario-gate perfbench
