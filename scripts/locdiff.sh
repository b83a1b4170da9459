#!/usr/bin/env bash
# Code-line deltas per package between a base and this checkout: runs loc.sh
# on both and prints "<base> <new> <delta> <package>" for every package
# either side has, plus the total. BASE is a git ref (its internal/ and cmd/
# are unpacked with `git archive` into a temp dir that is removed on exit) or
# a directory holding another checkout.
# Usage: locdiff.sh BASE [new-root]   (new-root defaults to this repo)
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
if [ $# -lt 1 ]; then
  echo "usage: locdiff.sh <git ref | directory> [new-root]" >&2
  exit 2
fi
base="$1"
new="${2:-$here/..}"
if [ ! -d "$base" ]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  git -C "$here/.." archive "$base" internal cmd | tar -x -C "$tmp"
  base="$tmp"
fi

{ bash "$here/loc.sh" "$base" | sed 's/^/base /'; bash "$here/loc.sh" "$new" | sed 's/^/new /'; } |
  awk '
    { if ($1 == "base") b[$3] = $2; else n[$3] = $2; seen[$3] = 1 }
    END {
      printf "%7s %7s %7s %s\n", "base", "new", "delta", "package"
      sorted = "LC_ALL=C sort -k4"
      for (p in seen) if (p != "total") printf "%7d %7d %+7d %s\n", b[p], n[p], n[p] - b[p], p | sorted
      close(sorted)
      printf "%7d %7d %+7d total\n", b["total"], n["total"], n["total"] - b["total"]
    }'
