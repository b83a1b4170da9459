#!/usr/bin/env bash
# End-to-end smoke test: boot aqpd on a small sales database, run an explain
# query through the /v1 surface, verify the observability endpoints
# (/metrics exposition, /debug/slowlog, X-Request-ID echo), then exercise
# live ingestion: stream rows in via `aqpcli ingest`, query them, kill the
# server hard, and check the restart replays the WAL. Last, a catalog that
# `aqpcli -catalog-dir` saved must start aqpd and answer the same, and a
# uniform family must restore from its own catalog. Used by
# CI after the unit suites; needs only bash, curl, awk and the go toolchain.
set -euo pipefail

ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
SQL='SELECT store_region, COUNT(*) FROM T GROUP BY store_region'
WALDIR=$(mktemp -d /tmp/smoke-wal.XXXXXX)

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }
. "$(dirname "$0")/match.sh" # body_has

echo "smoke: building aqpd and aqpcli..."
go build -o /tmp/aqpd-smoke ./cmd/aqpd
go build -o /tmp/aqpcli-smoke ./cmd/aqpcli

start_server() {
  # -scan-rate pins the planner's latency model so the bounded-query
  # scenario below is deterministic across machines. Extra args (e.g.
  # -catalog-dir for the checkpoint scenario) pass through.
  /tmp/aqpd-smoke -db sales -rows 50000 -rate 0.02 -addr "$ADDR" -wal-dir "$WALDIR" \
    -scan-rate 25000000 "$@" &
  PID=$!
}
start_server
CATDIR=$(mktemp -d /tmp/smoke-cat.XXXXXX)
HANDDIR=$(mktemp -d /tmp/smoke-hand.XXXXXX)
UNIDIR=$(mktemp -d /tmp/smoke-uni.XXXXXX)
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WALDIR" "$CATDIR" "$HANDDIR" "$UNIDIR"' EXIT

wait_ready() {
  for i in $(seq 1 50); do
    if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$PID" 2>/dev/null || fail "aqpd exited during startup"
    sleep 0.2
  done
  fail "server not ready after 10s"
}
echo "smoke: waiting for readiness..."
wait_ready

echo "smoke: explain query via /v1..."
RESP=$(curl -fsS -H 'X-Request-ID: smoke-run-1' -D /tmp/smoke-headers \
  "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"explain\":true}")
body_has '"groups"' "$RESP"            || fail "no groups in response: $RESP"
body_has '"trace"' "$RESP"             || fail "explain returned no trace: $RESP"
body_has '"samples"' "$RESP"           || fail "trace has no sample set: $RESP"
body_has '"name":"execute"' "$RESP"    || fail "trace has no execute stage: $RESP"
grep -qi 'x-request-id: smoke-run-1' /tmp/smoke-headers || fail "request id not echoed"

echo "smoke: un-versioned query path is gone..."
BODY=$(curl -sS "$BASE/query" -d "{\"sql\":\"$SQL\"}")
body_has '"error":{"code":"not_found"' "$BODY" \
  || fail "un-versioned /query does not answer the 404 envelope"

echo "smoke: error envelope..."
BODY=$(curl -sS "$BASE/v1/query" -d '{"sql":"NOT SQL"}')
body_has '"error":{"code":"bad_request"' "$BODY" \
  || fail "400 does not carry the error envelope"

echo "smoke: bounded queries..."
# A loose error bound is met by a sample plan; a tight one forces the
# planner to escalate to the exact fallback; an impossible combination
# (near-zero error within 1ms at the pinned scan rate) must 422 with the
# best achievable bounds rather than answer out of bound.
RESP=$(curl -fsS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"error_bound\":0.5}")
body_has '"plan":' "$RESP"            || fail "bounded answer has no plan: $RESP"
body_has '"plan":"exact"' "$RESP"     && fail "loose bound escalated to exact: $RESP"
body_has '"predicted":' "$RESP"       || fail "bounded answer has no predicted error: $RESP"
RESP=$(curl -fsS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"error_bound\":0.0001}")
body_has '"plan":"exact"' "$RESP"     || fail "tight bound did not escalate to exact: $RESP"
RESP=$(curl -sS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"error_bound\":0.000001,\"time_bound_ms\":1}")
body_has '"code":"bound_unsatisfiable"' "$RESP" || fail "impossible bound not rejected: $RESP"
body_has '"best_error_bound":' "$RESP"          || fail "422 lacks best achievable bound: $RESP"
BODY=$(curl -sS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"timeout_ms\":0}")
body_has '"code":"bad_request"' "$BODY" || fail "timeout_ms 0 not rejected"

echo "smoke: scraping /metrics..."
METRICS=$(curl -fsS "$BASE/metrics")
SERIES=$(grep -c '^# TYPE ' <<<"$METRICS")
[ "$SERIES" -ge 12 ] || fail "only $SERIES metric families, want >= 12"
body_has 'aqp_queries_total{endpoint="query",strategy="smallgroup",status="ok"}' "$METRICS" \
  || fail "query counter missing from /metrics"
body_has 'aqp_engine_rows_scanned_total' "$METRICS" \
  || fail "engine rows counter missing from /metrics"
body_has '^aqp_engine_stored_bytes{set="base"} [1-9]' "$METRICS" \
  || fail "stored-bytes gauge missing from /metrics"

echo "smoke: /debug/slowlog..."
BODY=$(curl -fsS "$BASE/debug/slowlog")
body_has '"entries":\[{' "$BODY" \
  || fail "slow log has no entries"

echo "smoke: ingesting sentinel rows via aqpcli..."
# Build one CSV row from the live schema: a sentinel region, fixed numbers
# for the numeric measures, a constant for every other dimension.
COLMETA=$(curl -fsS "$BASE/v1/columns")
CSVROW=$(echo "$COLMETA" | awk '
  {
    cols = $0; sub(/.*"columns":\[/, "", cols); sub(/\].*/, "", cols)
    n = split(cols, names, ",")
    row = ""
    for (i = 1; i <= n; i++) {
      name = names[i]; gsub(/"/, "", name)
      cell = "smoke-dim"
      if (index($0, "\"" name "\":\"INT\""))   cell = "7"
      if (index($0, "\"" name "\":\"FLOAT\"")) cell = "2.5"
      if (name == "store_region")              cell = "zz-smoke"
      row = row (i > 1 ? "," : "") cell
    }
    print row
  }')
[ -n "$CSVROW" ] || fail "could not build a CSV row from /v1/columns"
printf '%s\n%s\n%s\n%s\n%s\n' "$CSVROW" "$CSVROW" "$CSVROW" "$CSVROW" "$CSVROW" \
  | /tmp/aqpcli-smoke ingest -addr "$BASE" -file - -batch-size 5 -id-prefix smoke \
  || fail "aqpcli ingest failed"

INGEST_SQL="SELECT COUNT(*) FROM T WHERE store_region = 'zz-smoke'"
RESP=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
body_has '"values":\[5\]' "$RESP"   || fail "ingested rows not queryable: $RESP"
body_has '"generation":1' "$RESP"   || fail "exact answer missing generation: $RESP"
# The approximate path serves new rare values from the online-maintained
# small group table — the GROUP BY answer must list the sentinel exactly.
RESP=$(curl -fsS "$BASE/v1/query" -d "{\"sql\":\"$SQL\"}")
body_has 'zz-smoke' "$RESP" || fail "approximate answer misses the new small group: $RESP"
INGMETRICS=$(curl -fsS "$BASE/metrics")
body_has 'aqp_ingest_rows_total 5' "$INGMETRICS" \
  || fail "ingest metrics missing from /metrics"

echo "smoke: kill -9 and WAL replay..."
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_server
wait_ready
RESP=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
body_has '"values":\[5\]' "$RESP" || fail "rows lost across crash+restart: $RESP"
INGMETRICS=$(curl -fsS "$BASE/metrics")
body_has 'aqp_ingest_replayed_batches_total 1' "$INGMETRICS" \
  || fail "WAL replay counter not set after restart"
# Re-sending a pre-crash batch id must be deduplicated (idempotency window
# is rebuilt from the WAL on replay).
printf '%s\n' "$CSVROW" \
  | /tmp/aqpcli-smoke ingest -addr "$BASE" -file - -batch-size 1 -id-prefix smoke \
  || fail "pre-crash batch id retry failed"
BODY=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
body_has '"values":\[5\]' "$BODY" \
  || fail "batch id replayed twice after restart"

echo "smoke: checkpointed restart (bounded WAL replay)..."
# Restart with a catalog: the one durable batch replays once more, then a
# rebuild persists a checkpointed snapshot that covers it.
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_server -catalog-dir "$CATDIR"
wait_ready
BODY=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
body_has '"values":\[5\]' "$BODY" \
  || fail "rows lost when the catalog was attached"
RESP=$(curl -fsS -X POST "$BASE/v1/admin/rebuild")
body_has '"persisted":true' "$RESP" || fail "rebuild did not persist a checkpoint: $RESP"

# Kill -9 after the checkpoint: the restart must recover the rows from the
# snapshot delta and replay nothing — the checkpoint covers the whole log.
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_server -catalog-dir "$CATDIR"
wait_ready
BODY=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
body_has '"values":\[5\]' "$BODY" \
  || fail "rows lost across checkpointed restart"
CKMETRICS=$(curl -fsS "$BASE/metrics")
body_has '^aqp_ingest_replayed_batches_total 0$' "$CKMETRICS" \
  || fail "checkpoint-covered batch was replayed instead of skipped"
body_has '^aqp_ingest_replay_segments_total' "$CKMETRICS" \
  || fail "replay metrics missing from /metrics"
# The idempotency window rides in the checkpoint: a retry of the original
# pre-checkpoint batch id must dedupe even though the WAL no longer replays it.
printf '%s\n' "$CSVROW" \
  | /tmp/aqpcli-smoke ingest -addr "$BASE" -file - -batch-size 1 -id-prefix smoke \
  || fail "checkpoint-covered batch id retry failed"
BODY=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
body_has '"values":\[5\]' "$BODY" \
  || fail "checkpoint-covered batch id applied twice"

# Ingest one post-checkpoint row, kill -9 again: only that tail batch may
# replay, and the answers must include both the covered and the tail rows.
printf '%s\n' "$CSVROW" \
  | /tmp/aqpcli-smoke ingest -addr "$BASE" -file - -batch-size 1 -id-prefix smoke-post \
  || fail "post-checkpoint ingest failed"
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_server -catalog-dir "$CATDIR"
wait_ready
BODY=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
body_has '"values":\[6\]' "$BODY" \
  || fail "post-checkpoint tail lost across restart"
BODY=$(curl -fsS "$BASE/metrics")
body_has '^aqp_ingest_replayed_batches_total 1$' "$BODY" \
  || fail "restart replayed more than the post-checkpoint tail"

echo "smoke: aqpcli -catalog-dir hands its samples to aqpd..."
# One persisted form: the generation aqpcli's first run saves is what aqpd
# restores, and a second aqpcli run restores it too instead of pre-processing.
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
HSQL='SELECT s_region, COUNT(*) FROM T GROUP BY s_region'
HFLAGS=(-db tpch -rows 20000 -rate 0.02 -seed 7 -catalog-dir "$HANDDIR")
cli_rows() { sed -n "s/^'\([^']*\)' *\([0-9.]*\).*/\1 \2/p" <<<"$1" | sort; }
CLI1=$(/tmp/aqpcli-smoke "${HFLAGS[@]}" -query "$HSQL" 2>/tmp/smoke-cli.err) \
  || fail "aqpcli -catalog-dir failed: $(cat /tmp/smoke-cli.err)"
grep -q 'saved sample generation 1' /tmp/smoke-cli.err || fail "first aqpcli run did not save generation 1"
/tmp/aqpd-smoke "${HFLAGS[@]}" -addr "$ADDR" &
PID=$!
wait_ready
BODY=$(curl -fsS "$BASE/healthz")
body_has '"source":"snapshot"' "$BODY" && body_has '"generation":1,' "$BODY" \
  || fail "aqpd did not restore aqpcli's generation 1: $BODY"
RESP=$(curl -fsS "$BASE/v1/query" -d "{\"sql\":\"$HSQL\"}")
SERVED=$(grep -o '"key":\["[^"]*"\],"values":\[[^],]*' <<<"$RESP" \
  | sed 's/"key":\["\([^"]*\)"\],"values":\[/\1 /' | awk '{printf "%s %.2f\n", $1, $2}' | sort)
[ -n "$SERVED" ] && [ "$SERVED" = "$(cli_rows "$CLI1")" ] \
  || fail "aqpd answers differ from aqpcli's: $RESP vs $CLI1"
CLI2=$(/tmp/aqpcli-smoke "${HFLAGS[@]}" -query "$HSQL" 2>/tmp/smoke-cli.err) \
  || fail "second aqpcli -catalog-dir run failed: $(cat /tmp/smoke-cli.err)"
grep -q 'restored sample generation 1' /tmp/smoke-cli.err && ! grep -q 'pre-processed' /tmp/smoke-cli.err \
  || fail "second aqpcli run did not restore: $(cat /tmp/smoke-cli.err)"
[ "$(cli_rows "$CLI2")" = "$(cli_rows "$CLI1")" ] || fail "restored aqpcli answers differ from the built ones"

echo "smoke: aqpcli -strategy uniform restores its own generation..."
# A generation records the config that built it, so a uniform family
# round-trips through a catalog like a small group one.
UFLAGS=(-db tpch -rows 20000 -rate 0.02 -seed 7 -strategy uniform -catalog-dir "$UNIDIR")
UNI1=$(/tmp/aqpcli-smoke "${UFLAGS[@]}" -query "$HSQL" 2>/tmp/smoke-cli.err) \
  || fail "aqpcli -strategy uniform -catalog-dir failed: $(cat /tmp/smoke-cli.err)"
grep -q 'saved sample generation 1' /tmp/smoke-cli.err || fail "first uniform run did not save generation 1"
UNI2=$(/tmp/aqpcli-smoke "${UFLAGS[@]}" -query "$HSQL" 2>/tmp/smoke-cli.err) \
  || fail "second uniform run failed: $(cat /tmp/smoke-cli.err)"
grep -q 'restored sample generation 1' /tmp/smoke-cli.err && ! grep -q 'pre-processed' /tmp/smoke-cli.err \
  || fail "second uniform run did not restore: $(cat /tmp/smoke-cli.err)"
[ "$(cli_rows "$UNI2")" = "$(cli_rows "$UNI1")" ] || fail "restored uniform answers differ from the built ones"

echo "smoke: OK ($SERIES metric families)"
