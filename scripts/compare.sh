#!/usr/bin/env bash
# Paired benchmark comparison of a parent commit and a change.
#
#   scripts/compare.sh <parent-ref> [workloads]        run, then summarise
#   scripts/compare.sh --summary <parent> <change>     summarise saved results
#   scripts/compare.sh --record <pr> <parent> <change> append them to BENCH_repo.json
#   scripts/compare.sh --extract <workload> <pair>     one run's lines, from stdin
#   scripts/compare.sh --guard <parent-ref>            run the layer benchmarks, then gate
#   scripts/compare.sh --gate <parent> <change>        gate saved layer results
#
# A run `git archive`s the parent ref and the change (CHANGE, default HEAD)
# into a scratch directory (under TMPDIR) and runs `bench/run.sh --trace 0`
# (`--trace 1` with TRACE=1, which adds the per-layer metrics, such as
# core.execute_us) in PAIRS (default 10) pairs per workload (default: all four). Pair i runs
# both trees on seed i, the parent first in odd pairs and the change first in
# even ones, so a slow spell of the host hits both sides. Each run's gated
# metrics, its failed-op count and every timing of its #diag line (keys
# ending in _s or _ms, and ops_per_s) go to parent.txt and change.txt in OUT
# (default: the scratch directory), one "<workload> <pair> <metric> <value>"
# line each. The summary prints, per workload and metric, each side's median
# and interquartile range (linear interpolation between order statistics),
# the ratio of the medians, and the pairs the change wins: strictly lower, or
# strictly higher for ci_cover_share and ops_per_s. A record is one JSON line
# per workload appended to BENCH_repo.json at the repo root (RECORD overrides
# the path): the PR number, the machine class (bench/machine.json) and each
# side's median of the six gated metrics, null where a run has none.
#
# --guard runs each tree's own scripts/bench.sh (BENCHTIME, default 500ms) in
# place of bench/run.sh, in the same alternating pairs, one section (ingest,
# query, preprocess) at a time: both sides run a section before either runs
# the next, so a benchmark's two readings in a pair are seconds apart, not a
# whole bench.sh run. A benchmark line gives "<benchmark> <pair>
# ns_per_op|B_per_op|allocs_per_op <value>"; a parent whose bench.sh runs
# every section whatever it is asked gives each benchmark three readings a
# pair, and the last one counts. The gate then
# fails (exit 1) on a benchmark metric whose change median exceeds the
# parent's by more than 25 % and by more than the parent's IQR, in a run where
# the change is worse in at least nine tenths of the pairs (rounded up; a tie
# counts for neither side). A zero parent median is a bar like any other, and
# a benchmark on one side only is printed and never fails.
set -euo pipefail
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

summary() {
  awk '
    function qs(a, n, q,   h, i) { h = (n - 1) * q; i = int(h); return i + 1 < n ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[i] }
    function stats(side, k,   n, a, p, i, j, t) {
      n = 0
      for (p = 1; p <= maxpair; p++) if ((side, k, p) in v) a[n++] = v[side, k, p]
      for (i = 1; i < n; i++) for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
      med[side] = qs(a, n, 0.5); iqr[side] = qs(a, n, 0.75) - qs(a, n, 0.25)
    }
    NF == 4 {
      k = $1 " " $3; v[side, k, $2] = $4; keys[k] = 1
      if ($2 + 0 > maxpair) maxpair = $2 + 0
    }
    END {
      for (k in keys) {
        stats("p", k); stats("c", k)
        split(k, km, " "); higher = km[2] == "ci_cover_share" || km[2] == "ops_per_s"
        wins = 0; n = 0
        for (p = 1; p <= maxpair; p++) {
          if (!(("p", k, p) in v) || !(("c", k, p) in v)) continue
          n++; d = v["c", k, p] - v["p", k, p]
          if ((higher && d > 0) || (!higher && d < 0)) wins++
        }
        ratio = med["p"] != 0 ? sprintf("%.3f", med["c"] / med["p"]) : "-"
        printf "%-13s %-22s %12.6g %10.4g %12.6g %10.4g %7s %5s\n", km[1], km[2], med["p"], iqr["p"], med["c"], iqr["c"], ratio, wins "/" n
      }
    }' side=p "$1" side=c "$2" | LC_ALL=C sort -k1,1 -k2,2 |
    { printf "%-13s %-22s %12s %10s %12s %10s %7s %5s\n" workload metric parent_med parent_iqr change_med change_iqr ratio wins; cat; }
}

# extract <workload> <pair>: the metrics of one run's output, one line each.
extract() {
  awk -v w="$1" -v p="$2" '
    /^#diag / {
      s = substr($0, 8); gsub(/[{}"]/, "", s); n = split(s, kv, ",")
      for (i = 1; i <= n; i++) { split(kv[i], f, ":"); if (f[1] ~ /(_s|_ms)$/ || f[1] == "ops_per_s") print w, p, f[1], f[2] }
      next
    }
    /^attempted / { print w, p, "failed", $4; next }
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 3; i < NF; i += 2) {
        m = $(i + 1); if (m != "ns/op" && m != "B/op" && m != "allocs/op") continue
        sub(/\//, "_per_", m); v = sprintf("%.4f", $i); sub(/\.?0+$/, "", v)
        print name, p, m, v
      }
      next
    }
    NF == 3 && $1 ~ /^[a-z][a-z0-9_.]*$/ && $2 ~ /^[0-9.eE+-]+$/ { print w, p, $1, $2 }'
}

# gate <parent> <change>: the summary with the sides swapped, so that its
# wins are the pairs the change loses.
gate() {
  summary "$2" "$1" | awk '
    NR > 1 {
      split($8, w, "/"); lost = w[1]; n = w[2]; pm = $5 + 0; cm = $3 + 0
      if (n == 0) { printf "gate: ONE SIDE  %s %s\n", $1, $2; next }
      bad = cm > 1.25 * pm && cm - pm > $6 + 0 && lost >= int((9 * n + 9) / 10)
      printf "gate: %-9s %s %s %s -> %s (parent IQR %s, worse in %d/%d pairs)\n", bad ? "REGRESSED" : "ok", $1, $2, $5, $3, $6, lost, n
      fail = fail || bad
    }
    END { exit fail }'
}

record() {
  summary "$2" "$3" | awk -v pr="$1" -v m="$(tr -d ' \n' <"$root/bench/machine.json")" '
    BEGIN { n = split("setup_s rel_err_mean groups_missed_share ci_cover_share sample_space_share rss_peak_mb", g, " ") }
    NR > 1 { med[0, $1, $2] = $3; med[1, $1, $2] = $5; w[$1] = 1 }
    END {
      for (k in w) {
        s = sprintf("{\"pr\": %d, \"workload\": \"%s\", \"machine\": %s", pr, k, m)
        for (c = 0; c < 2; c++) {
          s = s sprintf(", \"%s\": {", c ? "change" : "parent")
          for (i = 1; i <= n; i++) s = s sprintf("%s\"%s\": %s", i > 1 ? ", " : "", g[i], (c, k, g[i]) in med ? med[c, k, g[i]] : "null")
          s = s "}"
        }
        print s "}"
      }
    }' | LC_ALL=C sort >>"${RECORD:-$root/BENCH_repo.json}"
}

if [ "${1:-}" = "--record" ]; then
  [ $# -eq 4 ] || { echo "usage: $0 --record <pr> <parent-results> <change-results>" >&2; exit 2; }
  record "$2" "$3" "$4"
  exit 0
fi
if [ "${1:-}" = "--extract" ]; then
  [ $# -eq 3 ] || { echo "usage: $0 --extract <workload> <pair> <run-output" >&2; exit 2; }
  extract "$2" "$3"
  exit 0
fi
if [ "${1:-}" = "--gate" ]; then
  [ $# -eq 3 ] && [ -f "$2" ] && [ -f "$3" ] || { echo "usage: $0 --gate <parent-results> <change-results>" >&2; exit 2; }
  gate "$2" "$3"
  exit
fi
if [ "${1:-}" = "--summary" ]; then
  [ $# -eq 3 ] || { echo "usage: $0 --summary <parent-results> <change-results>" >&2; exit 2; }
  summary "$2" "$3"
  exit 0
fi
guard=
if [ "${1:-}" = "--guard" ]; then
  [ $# -eq 2 ] || { echo "usage: $0 --guard <parent-ref>" >&2; exit 2; }
  guard=1
  shift
fi
[ $# -ge 1 ] || { echo "usage: $0 <parent-ref> [workloads]" >&2; exit 2; }
parent="$1"
workloads="${2:-dash_point groupby_scan ingest_only ingest_mixed}"
[ -z "$guard" ] || workloads="ingest query preprocess"
work="$(mktemp -d "${TMPDIR:-/tmp}/compare.XXXXXX")"
out="${OUT:-$work}"
mkdir -p "$out" "$work/parent" "$work/change"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"
git -C "$root" archive "${CHANGE:-HEAD}" | tar -x -C "$work/change"
: >"$out/parent.txt"
: >"$out/change.txt"
for pair in $(seq 1 "${PAIRS:-10}"); do
  order="parent change"
  [ $((pair % 2)) -eq 0 ] && order="change parent"
  for w in $workloads; do
    for side in $order; do
      echo "pair $pair $w $side" >&2
      if [ -n "$guard" ]; then
        (cd "$work/$side" && BENCHTIME="${BENCHTIME:-500ms}" bash scripts/bench.sh "$w")
      else
        (cd "$work/$side" && bash bench/run.sh --workload "$w" --seed "$pair" --seconds 8 --trace "${TRACE:-0}")
      fi | extract "$w" "$pair" >>"$out/$side.txt"
    done
  done
done
rm -rf "$work/parent" "$work/change"
echo "results: $out" >&2
if [ -n "$guard" ]; then
  gate "$out/parent.txt" "$out/change.txt"
else
  summary "$out/parent.txt" "$out/change.txt"
fi
