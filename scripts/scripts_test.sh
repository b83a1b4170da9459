#!/usr/bin/env bash
# Fixture-driven tests for the shell tooling in scripts/: the bench output
# -> JSON converter (scientific notation, name escaping) and compare.sh's
# layer gate (including the required failures on a synthetic 2x ns_per_op
# regression, a synthetic 2x allocs_per_op regression and a synthetic 2x
# B_per_op regression), and the
# loc.sh code-line counter with its locdiff.sh diff, and smoke.sh's body
# matcher, and doclinks.sh on fixture trees (a dead link, a dead
# "ARCHITECTURE.md §N" reference and a route from before /v1 must each
# fail), and compare.sh's summary and record of two canned result files,
# and bench.sh's section argument (one it does not know exits 2). Run by
# `make check`. Needs only bash, awk, diff, git.
set -u
cd "$(dirname "$0")/.."

fails=0

# t <description> <expected-exit-code> <command...>
t() {
  local desc="$1" want="$2"
  shift 2
  "$@" >/tmp/scripts_test.out 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc (exit $got, want $want)"
    sed 's/^/    /' /tmp/scripts_test.out
    fails=$((fails + 1))
  else
    echo "ok:   $desc"
  fi
}

# --- bench_json.sh -------------------------------------------------------
# Golden test: scientific-notation values must be normalised to plain
# decimal and a `"` in a subtest name must be escaped.
bash scripts/bench_json.sh /tmp/scripts_test_bench.json scripts/testdata/bench_sci.txt
if diff -u scripts/testdata/bench_sci.golden.json /tmp/scripts_test_bench.json >/tmp/scripts_test.out 2>&1; then
  echo "ok:   bench_json golden (scientific notation + name escaping)"
else
  echo "FAIL: bench_json golden (scientific notation + name escaping)"
  sed 's/^/    /' /tmp/scripts_test.out
  fails=$((fails + 1))
fi

if command -v python3 >/dev/null 2>&1; then
  t "bench_json output is valid JSON" 0 python3 -m json.tool /tmp/scripts_test_bench.json
fi

t "bench_json rejects missing args" 2 bash scripts/bench_json.sh /tmp/only_one_arg.json

# --- compare.sh --gate ----------------------------------------------------
# Canned layer results, five pairs each, against one parent: the gate fails a
# metric only when its median is >25 % and more than the parent's IQR worse in
# at least nine tenths of the pairs.
g=scripts/testdata/guard
t "gate passes on identical results" 0 bash scripts/compare.sh --gate $g/parent.txt $g/parent.txt
t "gate passes on +20% in every pair" 0 bash scripts/compare.sh --gate $g/parent.txt $g/within.txt
t "gate fails on 2x ns_per_op in every pair" 1 bash scripts/compare.sh --gate $g/parent.txt $g/regress2x.txt
t "gate fails on 2x allocs_per_op at equal ns_per_op" 1 bash scripts/compare.sh --gate $g/parent.txt $g/regress_allocs.txt
t "gate fails on 2x B_per_op at equal ns_per_op and allocs_per_op" 1 \
  bash scripts/compare.sh --gate $g/parent.txt $g/regress_bytes.txt
t "gate fails on one alloc per op over a zero parent median" 1 bash scripts/compare.sh --gate $g/parent.txt $g/zero_bar.txt
t "gate passes on 2x in one pair of five at equal medians" 0 bash scripts/compare.sh --gate $g/parent.txt $g/one_pair.txt
t "gate passes on a benchmark on one side only" 0 bash scripts/compare.sh --gate $g/parent.txt $g/one_side.txt
t "gate rejects a missing file" 2 bash scripts/compare.sh --gate $g/parent.txt /tmp/does_not_exist_$$.txt
# A benchmark line's -N suffix is stripped and its scientific notation printed
# as a plain decimal; units other than ns/op, B/op and allocs/op are dropped.
t "compare --extract reads go test -bench lines" 0 \
  bash -c "bash scripts/compare.sh --extract bench 1 <scripts/testdata/bench_sci.txt | diff -u $g/bench_sci.txt -"

# --- bench.sh --------------------------------------------------------------
# A section it does not know is a usage error, before any benchmark runs.
t "bench.sh refuses an unknown section" 2 bash scripts/bench.sh ingestion

# --- loc.sh --------------------------------------------------------------
# Golden test: comment-only lines, /* */ blocks, blank lines and _test.go
# files do not count; nested package directories are listed separately.
t "loc counts the fixture tree (comments, blocks, tests excluded)" 0 \
  bash -c 'bash scripts/loc.sh scripts/testdata/loc | diff -u scripts/testdata/loc/golden.txt -'

# --- locdiff.sh ----------------------------------------------------------
# Golden test against a second fixture tree: a package that shrank, one that
# appeared, one that is gone, and the total.
t "locdiff prints per-package deltas between two fixture trees" 0 \
  bash -c 'bash scripts/locdiff.sh scripts/testdata/loc_base scripts/testdata/loc | diff -u scripts/testdata/loc_base/golden_diff.txt -'
t "locdiff rejects a missing base" 2 bash scripts/locdiff.sh

# --- match.sh ------------------------------------------------------------
# The body is larger than a pipe's 64 KB buffer and matches on its first
# line: through `echo "$BODY" | grep -q` under pipefail that is exit 141
# whenever grep leaves first.
big_body='BODY=$(echo needle; head -c 300000 /dev/zero | tr "\0" x)'
t "body_has matches line 1 of a 300 KB body under pipefail" 0 \
  bash -c "set -euo pipefail; . scripts/match.sh; $big_body; body_has needle \"\$BODY\""
t "body_has fails when no line of a 300 KB body matches" 1 \
  bash -c "set -euo pipefail; . scripts/match.sh; $big_body; body_has thimble \"\$BODY\""

# --- doclinks.sh ----------------------------------------------------------
t "doclinks passes on a tree whose links and § references resolve" 0 \
  bash scripts/doclinks.sh scripts/testdata/doclinks/ok
t "doclinks fails on a dead relative link" 1 \
  bash scripts/doclinks.sh scripts/testdata/doclinks/dead_link
t "doclinks fails on a § reference to a missing ARCHITECTURE.md section" 1 \
  bash scripts/doclinks.sh scripts/testdata/doclinks/dead_section
t "doclinks fails on a Go comment naming a route from before /v1" 1 \
  bash scripts/doclinks.sh scripts/testdata/doclinks/old_route

# --- compare.sh ----------------------------------------------------------
# Golden test of the summary over two canned result files: medians and IQRs
# by linear interpolation, wins per pair (lower is better, but higher for
# ci_cover_share and ops_per_s; a tie is no win), and a pair the change
# lacks left out of its count.
t "compare summarises two canned result files" 0 \
  bash -c 'bash scripts/compare.sh --summary scripts/testdata/compare/parent.txt scripts/testdata/compare/change.txt | diff -u scripts/testdata/compare/golden.txt -'
t "compare --summary rejects a missing file argument" 2 \
  bash scripts/compare.sh --summary scripts/testdata/compare/parent.txt
# A traced run's lines: its dotted layer metrics are kept.
t "compare --extract keeps a traced run's layer metrics" 0 \
  bash -c 'bash scripts/compare.sh --extract groupby_scan 1 <scripts/testdata/compare/traced.out | diff -u scripts/testdata/compare/traced.txt -'
# Their record, made twice: each one JSON line per workload, appended.
t "compare --record appends one line per workload" 0 \
  bash -c 'rm -f /tmp/scripts_test_record.json; for i in 1 2; do RECORD=/tmp/scripts_test_record.json bash scripts/compare.sh --record 39 scripts/testdata/compare/parent.txt scripts/testdata/compare/change.txt || exit 1; done
    cat scripts/testdata/compare/record.json scripts/testdata/compare/record.json | diff -u - /tmp/scripts_test_record.json'

if [ "$fails" -ne 0 ]; then
  echo "scripts_test: $fails failure(s)"
  exit 1
fi
echo "scripts_test: all tests passed"
