#!/usr/bin/env bash
# Benchmark harness: runs the ingest-path, query-path and pre-processing
# layer benchmarks and emits machine-readable JSON (BENCH_ingest.json,
# BENCH_query.json, BENCH_preprocess.json) so successive commits can be
# compared. Needs only bash, awk and the go toolchain.
#
#   scripts/bench.sh                   # all three sections (benchtime 2s)
#   scripts/bench.sh query             # one section: ingest, query or preprocess
#   BENCHTIME=200ms scripts/bench.sh   # quick run
#
# A section run rewrites only its own BENCH_<section>.json. compare.sh
# --guard runs the parent's and the change's bench.sh one section at a time;
# a parent whose bench.sh predates the section argument ignores it and runs
# every section each time, which is slower but reads the same: each
# benchmark's last reading in a pair is the one kept.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
section="${1:-all}"
case "$section" in
  all | ingest | query | preprocess) ;;
  *) echo "usage: $0 [ingest|query|preprocess]" >&2; exit 2 ;;
esac

# wanted <section>: whether this run includes the section.
wanted() { [ "$section" = all ] || [ "$section" = "$1" ]; }

# Converts `go test -bench` lines into a JSON array; see bench_json.sh for
# the format and the hardening it applies (scientific notation, escaping).
bench_json() {
  bash scripts/bench_json.sh "$1" "$2"
}

if wanted ingest; then
  echo "bench: ingest path (WAL append + fsync + online maintenance; base tables of 20k, 100k and 1M rows; a 200-row tpch request body parsed into typed rows, beside the encoding/json decode it replaced)..." >&2
  go test ./internal/ingest -run '^$' -bench 'BenchmarkIngest' \
    -benchtime "$BENCHTIME" -benchmem | tee /tmp/bench_ingest.txt
  go test ./internal/server -run '^$' -bench 'BenchmarkIngestBody' \
    -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_ingest.txt
  bench_json BENCH_ingest.json /tmp/bench_ingest.txt
fi

if wanted query; then
  echo "bench: query path (concurrent HTTP queries, with and without ingest load; a shard's raw answer, encoded and decoded; one unbounded approximate answer in process, without and with a request deadline; the scan kernel alone, ns/row and allocs/row; a sealed chunk's decode per width, ns/value; one exact group-by at 1 and 2 scan workers)..." >&2
  go test ./internal/server -run '^$' -bench 'BenchmarkConcurrentQuery|BenchmarkRawAnswer' \
    -benchtime "$BENCHTIME" -benchmem | tee /tmp/bench_query.txt
  go test ./internal/core -run '^$' -bench 'BenchmarkAnswerUnbounded' \
    -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_query.txt
  go test ./internal/engine -run '^$' -bench 'BenchmarkScanKernel|BenchmarkChunkDecode' \
    -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_query.txt
  go test . -run '^$' -bench 'BenchmarkParallelScan' \
    -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_query.txt
  bench_json BENCH_query.json /tmp/bench_query.txt
fi

if wanted preprocess; then
  echo "bench: pre-processing layers (count, classify, materialise, online seeding; tpch spec, 200k rows) and base-data generation (tpch spec, 1M rows)..." >&2
  go test ./internal/core -run '^$' -bench 'BenchmarkPreprocessLayers' \
    -benchtime "$BENCHTIME" -benchmem | tee /tmp/bench_preprocess.txt
  go test ./internal/scenario -run '^$' -bench 'BenchmarkGenerate' \
    -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_preprocess.txt
  bench_json BENCH_preprocess.json /tmp/bench_preprocess.txt
fi

echo "bench: wrote the BENCH_*.json of section $section" >&2
