#!/usr/bin/env bash
# Fails on dead cross-references in the repository's documentation:
#
#   - every [text](relative/path) in a markdown file must point at a file or
#     directory that exists (anchors are stripped; absolute URLs and mailto:
#     are ignored);
#   - every "ARCHITECTURE.md §N" (or "ARCHITECTURE §N", "... §N and §M") in a
#     markdown or Go file must name a "## N." heading of ARCHITECTURE.md;
#   - no Go file may name a route from before /v1 ("POST /query", "GET
#     /admin/..."): those routes answer 404.
#
# Run by `make check` so documentation reorganisations cannot silently orphan
# cross-references like README -> docs/API.md -> docs/ACCURACY.md.
#
# Usage: scripts/doclinks.sh [DIR]   (default: the repository root). DIR must
# lie inside a git work tree; scripts/testdata is skipped unless it is DIR.
set -uo pipefail

cd "${1:-$(dirname "$0")/..}" || exit 2

bad=0
while IFS= read -r md; do
  dir=$(dirname "$md")
  # Pull out every inline link target. Reference-style links and bare URLs
  # are out of scope; this repo uses inline links throughout.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "doclinks: $md: dead link -> $target" >&2
      bad=1
    fi
  done < <(grep -so '\[[^][]*\]([^()[:space:]]*)' "$md" | sed 's/.*(\(.*\))/\1/')
done < <(git ls-files -co --exclude-standard -- '*.md' ':!:scripts/testdata/*')

while IFS=: read -r file line ref; do
  for m in $(grep -o '§[0-9]*' <<<"$ref"); do
    n=${m#§}
    if ! grep -q "^## $n\. " ARCHITECTURE.md 2>/dev/null; then
      echo "doclinks: $file:$line: $ref names no '## $n.' heading of ARCHITECTURE.md" >&2
      bad=1
    fi
  done
done < <(git ls-files -co --exclude-standard -- '*.md' '*.go' ':!:scripts/testdata/*' |
  xargs -r -d '\n' grep -sHnoE 'ARCHITECTURE(\.md)? §[0-9]+( and §[0-9]+)*')

while IFS= read -r hit; do
  echo "doclinks: $hit: names a route from before /v1" >&2
  bad=1
done < <(git ls-files -co --exclude-standard -- '*.go' ':!:scripts/testdata/*' |
  xargs -r -d '\n' grep -sHnE '(POST|GET) /(query|exact|ingest|admin)')

if [ "$bad" -ne 0 ]; then
  echo "doclinks: FAIL" >&2
  exit 1
fi
echo "doclinks: OK"
