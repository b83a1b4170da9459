#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload dash_point --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh              # every workload, untraced then traced
#   bash bench/run.sh -agree 5     # self-check against the committed bounds
#
# Everything the build writes stays inside the checkout: the Go build cache,
# the toolchain's own config directory and the binary live under
# .bench_build/ (git-ignored).
set -euo pipefail
if [ ! -f go.mod ]; then
  echo "bench/run.sh: no go.mod in $PWD: run from the root of a checkout that holds the program" >&2
  exit 2
fi
build="$PWD/.bench_build"
# The go command's telemetry is switched off in that config directory before
# go first runs: in its default mode go starts a detached sidecar process that
# outlives the build, and the benchmark must leave no process behind.
mkdir -p "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
XDG_CONFIG_HOME="$build/config" go build -o "$build/aqpbench" ./bench
exec "$build/aqpbench" "$@"
