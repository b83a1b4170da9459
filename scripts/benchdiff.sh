#!/usr/bin/env bash
# benchdiff.sh <baseline.json> <fresh.json> [max_regression_pct]
#
# Compares two BENCH_*.json files (as produced by scripts/bench_json.sh)
# and fails if any benchmark's ns_per_op, allocs_per_op or B_per_op regressed
# by more than max_regression_pct (default 25) relative to the baseline (a
# metric missing on either side is not compared). Benchmarks
# present in only one file are reported but never fail the diff, so adding
# or retiring a benchmark does not require touching the guard.
#
# Exit codes: 0 = no regression beyond threshold, 1 = regression, 2 = usage.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <baseline.json> <fresh.json> [max_regression_pct]" >&2
  exit 2
fi
base="$1"
fresh="$2"
pct="${3:-25}"

for f in "$base" "$fresh"; do
  if [ ! -f "$f" ]; then
    echo "benchdiff: no such file: $f" >&2
    exit 2
  fi
done

awk -v pct="$pct" '
  BEGIN {
    metric[1] = "ns_per_op"; unit[1] = "ns/op"; metric[2] = "allocs_per_op"; unit[2] = "allocs/op"
    metric[3] = "B_per_op"; unit[3] = "B/op"; metrics = 3
  }
  FNR == 1 { pass++ }
  # bench_json.sh emits exactly one benchmark object per line, so a
  # line-oriented extraction of "name" and the guarded metrics is exact here.
  /"name":/ {
    i = index($0, "\"name\": \"")
    if (i == 0) next
    rest = substr($0, i + 9)
    name = substr(rest, 1, index(rest, "\"") - 1)
    for (m = 1; m <= metrics; m++) {
      key = "\"" metric[m] "\": "
      j = index($0, key)
      if (j == 0) continue
      v = substr($0, j + length(key)) + 0
      if (pass == 1) base[m, name] = v
      else { fresh[m, name] = v; seen[name] = 1 }
    }
    if (pass == 1) inBase[name] = 1
  }
  END {
    fail = 0
    for (name in seen) {
      if (!(name in inBase)) {
        printf "benchdiff: NEW       %-50s %12.0f ns/op (no baseline)\n", name, fresh[1, name]
        continue
      }
      for (m = 1; m <= metrics; m++) {
        if (!((m, name) in base) || !((m, name) in fresh)) continue
        b = base[m, name]; f = fresh[m, name]
        delta = (b > 0) ? (f - b) / b * 100 : 0
        # A zero ns/op baseline is a broken run, not a bar to clear; a zero
        # allocs/op or B/op baseline is a real bar: any allocation regresses it.
        if (f > b * (1 + pct / 100) && (b > 0 || m >= 2)) {
          printf "benchdiff: REGRESSED %-50s %12.0f -> %12.0f %s (%+.1f%%, limit +%g%%)\n", name, b, f, unit[m], delta, pct
          fail = 1
        } else {
          printf "benchdiff: ok        %-50s %12.0f -> %12.0f %s (%+.1f%%)\n", name, b, f, unit[m], delta
        }
      }
    }
    for (name in inBase)
      if (!(name in seen))
        printf "benchdiff: GONE      %-50s (in baseline only)\n", name
    exit fail
  }
' "$base" "$fresh"
