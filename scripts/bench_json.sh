#!/usr/bin/env bash
# bench_json.sh <out.json> <go-bench-output.txt>
#
# Converts `go test -bench` output into a JSON document with one object per
# benchmark. Handles the standard ns/op pair plus any custom metrics
# (rows/sec, B/op, allocs/op). Hardened against the two ways raw bench
# output can break naive conversion:
#
#   - scientific-notation values (go prints e.g. "1.25e+03 ns/op" for fast
#     benchmarks): normalised to plain decimal via awk numeric coercion
#   - benchmark names containing `"` or `\` (possible via subtest names):
#     escaped so the output stays valid JSON
#
# Metric keys are derived from the unit ("ns/op" -> "ns_per_op") and
# sanitised to [A-Za-z0-9_]. Exactly one benchmark object per line, so a
# line diff of two of them shows what moved.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <out.json> <go-bench-output.txt>" >&2
  exit 2
fi

awk '
  BEGIN { print "{\n  \"benchmarks\": [" ; first = 1 }
  /^Benchmark/ {
    name = $1; iters = $2 + 0
    sub(/-[0-9]+$/, "", name)
    gsub(/\\/, "\\\\", name)
    gsub(/"/, "\\\"", name)
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"iters\": %d", name, iters
    for (i = 3; i + 1 <= NF; i += 2) {
      metric = $(i + 1)
      gsub(/\//, "_per_", metric)
      gsub(/[^A-Za-z0-9_]/, "_", metric)
      printf ", \"%s\": %.10g", metric, $i + 0
    }
    printf "}"
  }
  END { print "\n  ]\n}" }
' "$2" > "$1"
