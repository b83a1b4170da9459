# Convenience targets for the dynsample reproduction.

GO ?= go

.PHONY: all check build test vet cover bench bench-json bench-guard scenarios scenario-smoke experiments experiments-quick examples faults smoke fuzz fuzz-smoke loc loc-diff clean

all: build vet test

# The CI gate: build + vet + full test suite under the race detector, the
# schedule-dependent build paths (generation's fills, pre-processing's
# sharded scan 2) and the exact scan on every core pinned at 1, 2 and 8
# cores whatever the runner has, the
# shard stripes and the tiers' surface parity at the same core counts, plus
# the dead-link and ARCHITECTURE.md § reference check over the docs and
# the scripts' fixture tests, and a known-vulnerability
# scan (skipped quietly where govulncheck is not installed; CI installs it).
# The layer benchmarks are `make bench-guard`'s, a step of their own.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -cpu 1,2,8 -run 'Determinism|Golden|PacksAsItGoes' ./internal/core ./internal/scenario ./internal/engine
	$(GO) test -cpu 1,2,8 -run 'Parity|Stripe' ./internal/cluster
	bash scripts/doclinks.sh
	bash scripts/scripts_test.sh
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fault-injection and stress tests: deterministic timeout / cancellation /
# overload / drain / panic-recovery scenarios, the concurrent-query stress
# test, the crash/corruption recovery suite (snapshot truncation and
# bit-flip detection, catalog generation fallback, zero-downtime rebuild
# swaps), the ingestion suite (torn-WAL crash recovery, fsync failure,
# backpressure, drift-triggered rebuild, checkpoint GC, degraded mode,
# ingest+query+rebuild stress), and the crash-point simulator (a crash or
# I/O error at every hook point of ingest → rebuild → checkpoint → GC →
# restart), and the cluster tier's network fault drills (shard death mid
# query, flaky transports, truncated responses, hedging, breaker trips and
# half-open re-admission), all under the race detector. The timing-
# sensitive tests (hedging, breakers, the shared probe schedule, degraded
# ingest, jitter) then rerun 20 times at 1 and 2 cores to vary scheduling.
faults:
	$(GO) test -race -timeout 120s ./internal/faults ./internal/faults/crashsim ./internal/catalog
	$(GO) test -race -timeout 180s ./internal/ingest
	$(GO) test -race -timeout 120s ./internal/cluster
	$(GO) test -race -count 20 -cpu 1,2 -run 'Hedge|Breaker|Probe|Degraded|Jitter' ./internal/cluster ./internal/ingest ./internal/parallel
	$(GO) test -race -timeout 180s \
		-run 'Ctx|Cancel|Deadline|Degrade|Overload|Drain|Panic|Stuck|Robust|BadRequest|Malformed|Stress|WriteJSON|ExactParity|Snapshot|Catalog|Recovery|Rebuild|Swap|Healthz|Readyz|HostileLength|Ingest|WAL|Checkpoint|Shard' \
		./internal/parallel ./internal/engine ./internal/core ./internal/server

# End-to-end smoke test: boot aqpd, run an explain query over /v1, scrape
# /metrics and /debug/slowlog, check the error envelope and request-id echo,
# then ingest rows through aqpcli, kill -9 the server and verify WAL replay.
smoke:
	bash scripts/smoke.sh

# Short mode skips the slowest end-to-end experiment tests.
test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem .

# Ingest-path, query-path and pre-processing-layer benchmarks with
# machine-readable JSON output (BENCH_ingest.json / BENCH_query.json /
# BENCH_preprocess.json) for commit-to-commit comparison.
bench-json:
	bash scripts/bench.sh

# Benchmark regression guard: runs scripts/bench.sh of the parent BASE
# (default HEAD~1) and of HEAD in PAIRS (default 5) alternating pairs on this
# host, one section at a time, at BENCHTIME (default 500ms), and fails on an
# ns_per_op, allocs_per_op or B_per_op median more than 25 % and more than
# the parent's IQR worse, in at least nine tenths of the pairs
# (scripts/compare.sh --guard). Five pairs take ~8 min on 2 vCPU.
bench-guard: BASE ?= HEAD~1
bench-guard:
	PAIRS=$${PAIRS:-5} bash scripts/compare.sh --guard $(BASE)

# Full scenario sweep: run every committed case end-to-end against a live
# server and write one SCENARIO_<case>.json verdict per case. Fails if any
# declared gate (RelErr ceiling, QPS floor, memory/build budget) fails.
scenarios:
	$(GO) run ./cmd/aqpscenario -cases scenarios/cases -out scenarios/verdicts -v

# The CI smoke slice: just the tiny uniform case (a few seconds).
scenario-smoke:
	@mkdir -p /tmp/scenario-smoke
	$(GO) run ./cmd/aqpscenario -case uniform_smoke -out /tmp/scenario-smoke -v

# Regenerate every paper figure at full scale (~10 min, single core).
experiments:
	$(GO) run ./cmd/experiments -all

experiments-quick:
	$(GO) run ./cmd/experiments -all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/skewexplorer
	$(GO) run ./examples/sumoutliers
	$(GO) run ./examples/workloadtuned
	$(GO) run ./examples/salesdashboard

fuzz:
	$(GO) test ./internal/sqlparse -fuzz FuzzParse -fuzztime 30s

# Quick fuzz pass over the sample-store loader, the catalog payload decoder
# (checkpoint or bare stream: an error or a snapshot with its checkpoint and
# samples), the WAL record decoder and the table format reader: arbitrary
# bytes (including bit-flipped valid inputs) must produce errors, never
# panics. And over the checksummed frame the WAL and the catalog container
# share: a payload or an error, never an allocation past the cap, the stream
# read and the byte-slice check agreeing. And over a shard's raw answer: an
# answer it accepts re-encodes to the same bytes. And over the ingest body parser,
# held to what encoding/json makes of the same body, the chunk codec, held to a plain
# slice, and the scenario spec parser: a spec it accepts must generate. And
# over the column-frequency kernel, held to a naive per-row count on random
# star schemas (integer columns counted densely and in a map), and the
# inverse CDFs, held to a bisection of the whole CDF. Minimizing a new input
# is capped at 1s: the default 60s, spent on a large input (a seed table holds
# tens of thousands of rows), would stall the whole 15s window at 0 execs/s.
fuzz-smoke:
	$(GO) test ./internal/core -run FuzzLoadSmallGroup -fuzz FuzzLoadSmallGroup -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/ingest -run FuzzDecodeSnapshot -fuzz FuzzDecodeSnapshot -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/ingest -run FuzzWALDecode -fuzz FuzzWALDecode -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/engine -run FuzzReadBinary -fuzz FuzzReadBinary -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/binio -run FuzzFrame -fuzz FuzzFrame -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/engine -run FuzzChunkCodec -fuzz FuzzChunkCodec -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run FuzzDecodeRaw -fuzz FuzzDecodeRaw -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run FuzzIngestBody -fuzz FuzzIngestBody -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/scenario -run FuzzParseSpec -fuzz FuzzParseSpec -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/engine -run FuzzColumnFrequencies -fuzz FuzzColumnFrequencies -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/randx -run FuzzInverseCDF -fuzz FuzzInverseCDF -fuzztime 15s -fuzzminimizetime 1s

# Non-test, non-blank, non-comment Go lines per package under internal/ and
# cmd/, plus a total: the ledger ROADMAP's "One path per job" shrink is
# measured on. Count another checkout with `scripts/loc.sh DIR`.
loc:
	@bash scripts/loc.sh

# The same ledger as a diff: per-package code-line deltas of this checkout
# against a git ref, e.g. `make loc-diff BASE=HEAD~1`.
loc-diff:
	@bash scripts/locdiff.sh $(BASE)

clean:
	$(GO) clean ./...
