# Sourced by smoke.sh (and scripts_test.sh).
#
# body_has PATTERN BODY succeeds when a line of BODY matches PATTERN. The body
# reaches grep as a here-string, never through a pipe: under `set -o
# pipefail`, `echo "$BODY" | grep -q PATTERN` and `curl ... | grep -q PATTERN`
# fail whenever grep exits at its first match while the writer still has
# output to hand over (SIGPIPE, or curl's exit 23), which a body over the
# 64 KB pipe buffer makes a matter of timing.
body_has() { grep -q -- "$1" <<<"$2"; }
