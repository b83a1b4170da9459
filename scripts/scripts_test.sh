#!/usr/bin/env bash
# Fixture-driven tests for the shell tooling in scripts/: the bench output
# -> JSON converter (scientific notation, name escaping) and the benchdiff
# regression guard (including the required failures on a synthetic 2x
# ns_per_op regression, a synthetic 2x allocs_per_op regression and a
# synthetic 2x B_per_op regression), and the
# loc.sh code-line counter with its locdiff.sh diff, and smoke.sh's body
# matcher. Run by `make check`. Needs only bash, awk, diff.
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

# --- benchdiff.sh --------------------------------------------------------
t "benchdiff passes on identical results" 0 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json scripts/testdata/baseline.json
t "benchdiff passes on regression within threshold" 0 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json scripts/testdata/within.json
t "benchdiff fails on synthetic 2x ns_per_op regression" 1 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json scripts/testdata/regress2x.json
t "benchdiff fails on synthetic 2x allocs_per_op regression at equal ns_per_op" 1 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json scripts/testdata/regress_allocs.json
t "benchdiff fails on synthetic 2x B_per_op regression at equal ns_per_op and allocs_per_op" 1 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json scripts/testdata/regress_bytes.json
t "benchdiff passes on improvement (new benchmark is informational)" 0 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json scripts/testdata/improved.json
t "benchdiff honours a custom threshold (2x allowed at 150%)" 0 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json scripts/testdata/regress2x.json 150
t "benchdiff rejects a missing file" 2 \
  bash scripts/benchdiff.sh scripts/testdata/baseline.json /tmp/does_not_exist_$$.json

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

if [ "$fails" -ne 0 ]; then
  echo "scripts_test: $fails failure(s)"
  exit 1
fi
echo "scripts_test: all tests passed"
