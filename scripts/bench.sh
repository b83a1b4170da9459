#!/usr/bin/env bash
# Benchmark harness: runs the ingest-path, query-path and pre-processing
# layer benchmarks and emits machine-readable JSON (BENCH_ingest.json,
# BENCH_query.json, BENCH_preprocess.json) so successive commits can be
# compared. Needs only bash, awk and the go toolchain.
#
#   scripts/bench.sh            # full run (benchtime 2s)
#   BENCHTIME=200ms scripts/bench.sh   # quick run
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
OUTDIR="${BENCH_OUTDIR:-.}"

# Converts `go test -bench` lines into a JSON array; see bench_json.sh for
# the format and the hardening it applies (scientific notation, escaping).
bench_json() {
  bash scripts/bench_json.sh "$1" "$2"
}

echo "bench: ingest path (WAL append + fsync + online maintenance; base tables of 20k, 100k and 1M rows)..." >&2
go test ./internal/ingest -run '^$' -bench 'BenchmarkIngest' \
  -benchtime "$BENCHTIME" -benchmem | tee /tmp/bench_ingest.txt
bench_json "$OUTDIR/BENCH_ingest.json" /tmp/bench_ingest.txt

echo "bench: query path (concurrent HTTP queries, with and without ingest load; the scan kernel alone, ns/row and allocs/row; a sealed chunk's decode per width, ns/value; one exact group-by at 1 and 2 scan workers)..." >&2
go test ./internal/server -run '^$' -bench 'BenchmarkConcurrentQuery' \
  -benchtime "$BENCHTIME" -benchmem | tee /tmp/bench_query.txt
go test ./internal/engine -run '^$' -bench 'BenchmarkScanKernel|BenchmarkChunkDecode' \
  -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_query.txt
go test . -run '^$' -bench 'BenchmarkParallelScan' \
  -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_query.txt
bench_json "$OUTDIR/BENCH_query.json" /tmp/bench_query.txt

echo "bench: pre-processing layers (count, classify, materialise, online seeding; tpch spec, 200k rows) and base-data generation (tpch spec, 1M rows)..." >&2
go test ./internal/core -run '^$' -bench 'BenchmarkPreprocessLayers' \
  -benchtime "$BENCHTIME" -benchmem | tee /tmp/bench_preprocess.txt
go test ./internal/scenario -run '^$' -bench 'BenchmarkGenerate' \
  -benchtime "$BENCHTIME" -benchmem | tee -a /tmp/bench_preprocess.txt
bench_json "$OUTDIR/BENCH_preprocess.json" /tmp/bench_preprocess.txt

echo "bench: wrote $OUTDIR/BENCH_ingest.json, $OUTDIR/BENCH_query.json and $OUTDIR/BENCH_preprocess.json" >&2
