#!/usr/bin/env bash
# End-to-end smoke test: boot aqpd on a small sales database, run an explain
# query through the /v1 surface, verify the observability endpoints
# (/metrics exposition, /debug/slowlog, X-Request-ID echo), then exercise
# live ingestion: stream rows in via `aqpcli ingest`, query them, kill the
# server hard, and check the restart replays the WAL. Used by CI after the
# unit suites; needs only bash, curl, awk and the go toolchain.
set -euo pipefail

ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
SQL='SELECT store_region, COUNT(*) FROM T GROUP BY store_region'
WALDIR=$(mktemp -d /tmp/smoke-wal.XXXXXX)

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

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
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WALDIR" "$CATDIR"' EXIT

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
echo "$RESP" | grep -q '"groups"'            || fail "no groups in response: $RESP"
echo "$RESP" | grep -q '"trace"'             || fail "explain returned no trace: $RESP"
echo "$RESP" | grep -q '"samples"'           || fail "trace has no sample set: $RESP"
echo "$RESP" | grep -q '"name":"execute"'    || fail "trace has no execute stage: $RESP"
grep -qi 'x-request-id: smoke-run-1' /tmp/smoke-headers || fail "request id not echoed"

echo "smoke: un-versioned query path is gone..."
curl -sS "$BASE/query" -d "{\"sql\":\"$SQL\"}" | grep -q '"error":{"code":"not_found"' \
  || fail "un-versioned /query does not answer the 404 envelope"

echo "smoke: error envelope..."
curl -sS "$BASE/v1/query" -d '{"sql":"NOT SQL"}' | grep -q '"error":{"code":"bad_request"' \
  || fail "400 does not carry the error envelope"

echo "smoke: bounded queries..."
# A loose error bound is met by a sample plan; a tight one forces the
# planner to escalate to the exact fallback; an impossible combination
# (near-zero error within 1ms at the pinned scan rate) must 422 with the
# best achievable bounds rather than answer out of bound.
RESP=$(curl -fsS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"error_bound\":0.5}")
echo "$RESP" | grep -q '"plan":'            || fail "bounded answer has no plan: $RESP"
echo "$RESP" | grep -q '"plan":"exact"'     && fail "loose bound escalated to exact: $RESP"
echo "$RESP" | grep -q '"predicted":'       || fail "bounded answer has no predicted error: $RESP"
RESP=$(curl -fsS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"error_bound\":0.0001}")
echo "$RESP" | grep -q '"plan":"exact"'     || fail "tight bound did not escalate to exact: $RESP"
RESP=$(curl -sS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"error_bound\":0.000001,\"time_bound_ms\":1}")
echo "$RESP" | grep -q '"code":"bound_unsatisfiable"' || fail "impossible bound not rejected: $RESP"
echo "$RESP" | grep -q '"best_error_bound":'          || fail "422 lacks best achievable bound: $RESP"
curl -sS "$BASE/v1/query" -d "{\"sql\":\"$SQL\",\"timeout_ms\":0}" \
  | grep -q '"code":"bad_request"' || fail "timeout_ms 0 not rejected"

echo "smoke: scraping /metrics..."
METRICS=$(curl -fsS "$BASE/metrics")
SERIES=$(echo "$METRICS" | grep -c '^# TYPE ')
[ "$SERIES" -ge 12 ] || fail "only $SERIES metric families, want >= 12"
echo "$METRICS" | grep -q 'aqp_queries_total{endpoint="query",strategy="smallgroup",status="ok"}' \
  || fail "query counter missing from /metrics"
echo "$METRICS" | grep -q 'aqp_engine_rows_scanned_total' \
  || fail "engine rows counter missing from /metrics"

echo "smoke: /debug/slowlog..."
curl -fsS "$BASE/debug/slowlog" | grep -q '"entries":\[{' \
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
echo "$RESP" | grep -q '"values":\[5\]'   || fail "ingested rows not queryable: $RESP"
echo "$RESP" | grep -q '"generation":1'   || fail "exact answer missing generation: $RESP"
# The approximate path serves new rare values from the online-maintained
# small group table — the GROUP BY answer must list the sentinel exactly.
RESP=$(curl -fsS "$BASE/v1/query" -d "{\"sql\":\"$SQL\"}")
echo "$RESP" | grep -q 'zz-smoke' || fail "approximate answer misses the new small group: $RESP"
INGMETRICS=$(curl -fsS "$BASE/metrics")
echo "$INGMETRICS" | grep -q 'aqp_ingest_rows_total 5' \
  || fail "ingest metrics missing from /metrics"

echo "smoke: kill -9 and WAL replay..."
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_server
wait_ready
RESP=$(curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}")
echo "$RESP" | grep -q '"values":\[5\]' || fail "rows lost across crash+restart: $RESP"
INGMETRICS=$(curl -fsS "$BASE/metrics")
echo "$INGMETRICS" | grep -q 'aqp_ingest_replayed_batches_total 1' \
  || fail "WAL replay counter not set after restart"
# Re-sending a pre-crash batch id must be deduplicated (idempotency window
# is rebuilt from the WAL on replay).
printf '%s\n' "$CSVROW" \
  | /tmp/aqpcli-smoke ingest -addr "$BASE" -file - -batch-size 1 -id-prefix smoke \
  || fail "pre-crash batch id retry failed"
curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}" | grep -q '"values":\[5\]' \
  || fail "batch id replayed twice after restart"

echo "smoke: checkpointed restart (bounded WAL replay)..."
# Restart with a catalog: the one durable batch replays once more, then a
# rebuild persists a checkpointed snapshot that covers it.
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_server -catalog-dir "$CATDIR"
wait_ready
curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}" | grep -q '"values":\[5\]' \
  || fail "rows lost when the catalog was attached"
RESP=$(curl -fsS -X POST "$BASE/v1/admin/rebuild")
echo "$RESP" | grep -q '"persisted":true' || fail "rebuild did not persist a checkpoint: $RESP"

# Kill -9 after the checkpoint: the restart must recover the rows from the
# snapshot delta and replay nothing — the checkpoint covers the whole log.
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_server -catalog-dir "$CATDIR"
wait_ready
curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}" | grep -q '"values":\[5\]' \
  || fail "rows lost across checkpointed restart"
CKMETRICS=$(curl -fsS "$BASE/metrics")
echo "$CKMETRICS" | grep -q '^aqp_ingest_replayed_batches_total 0$' \
  || fail "checkpoint-covered batch was replayed instead of skipped"
echo "$CKMETRICS" | grep -q '^aqp_ingest_replay_segments_total' \
  || fail "replay metrics missing from /metrics"
# The idempotency window rides in the checkpoint: a retry of the original
# pre-checkpoint batch id must dedupe even though the WAL no longer replays it.
printf '%s\n' "$CSVROW" \
  | /tmp/aqpcli-smoke ingest -addr "$BASE" -file - -batch-size 1 -id-prefix smoke \
  || fail "checkpoint-covered batch id retry failed"
curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}" | grep -q '"values":\[5\]' \
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
curl -fsS "$BASE/v1/exact" -d "{\"sql\":\"$INGEST_SQL\"}" | grep -q '"values":\[6\]' \
  || fail "post-checkpoint tail lost across restart"
curl -fsS "$BASE/metrics" | grep -q '^aqp_ingest_replayed_batches_total 1$' \
  || fail "restart replayed more than the post-checkpoint tail"

echo "smoke: OK ($SERIES metric families)"
