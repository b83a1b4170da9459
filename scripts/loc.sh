#!/usr/bin/env bash
# Code lines per Go package: non-test, non-blank, non-comment lines of every
# package directory under internal/ and cmd/, one "<lines> <package>" line
# each plus a total. A line counts as comment when it holds nothing but a
# // comment or lies inside a /* */ block; trailing comments after code count
# as code. Usage: loc.sh [repo-root]   (default: the repo this script is in)
set -eu
root="${1:-$(dirname "$0")/..}"
cd "$root"

find internal cmd -type f -name '*.go' ! -name '*_test.go' 2>/dev/null | LC_ALL=C sort |
  awk '
    {
      file = $0
      pkg = file; sub(/\/[^\/]*$/, "", pkg)
      lines[pkg] += 0
      inblock = 0
      while ((getline line < file) > 0) {
        sub(/^[ \t]+/, "", line); sub(/[ \t\r]+$/, "", line)
        if (inblock) {
          if (index(line, "*/")) { inblock = 0; sub(/^.*\*\//, "", line); sub(/^[ \t]+/, "", line) }
          else continue
        }
        if (line ~ /^\/\*/) {
          if (!index(line, "*/")) { inblock = 1; continue }
          sub(/^\/\*.*\*\//, "", line); sub(/^[ \t]+/, "", line)
        }
        if (line == "" || line ~ /^\/\//) continue
        lines[pkg]++
      }
      close(file)
    }
    END {
      sorted = "LC_ALL=C sort -k2"
      for (pkg in lines) { printf "%7d %s\n", lines[pkg], pkg | sorted; total += lines[pkg] }
      close(sorted)
      printf "%7d total\n", total
    }'
