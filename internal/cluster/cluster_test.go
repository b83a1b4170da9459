package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/obs"
	"dynsample/internal/randx"
	"dynsample/internal/server"
)

// buildClusterDB is the shared fixture: a skewed sales table with an
// integer measure (so exact cross-shard merges are bit-identical) and one
// region, "westonly", that lives entirely in shard 0's stripe of a 4-way
// split — the pruning test relies on that locality.
func buildClusterDB(t testing.TB) *engine.Database { return buildClusterDBRows(t, 6000) }

func buildClusterDBRows(t testing.TB, rows int) *engine.Database {
	t.Helper()
	region := engine.NewColumn("region", engine.String)
	amount := engine.NewColumn("amount", engine.Int)
	fact := engine.NewTable("sales", region, amount)
	rng := randx.New(17)
	zi := randx.NewZipf(1.3, 10)
	for i := 0; i < rows; i++ {
		r := "r" + string(rune('a'+zi.Draw(rng)))
		if i < 1500 && rng.Intn(20) == 0 {
			r = "westonly"
		}
		region.AppendString(r)
		amount.AppendInt(int64(rng.Intn(100) + 1))
		fact.EndRow()
	}
	return engine.MustNewDatabase("salesdb", fact)
}

func newSystem(t testing.TB, db *engine.Database) *core.System { return newSystemWorkers(t, db, 2) }

func newSystemWorkers(t testing.TB, db *engine.Database, workers int) *core.System {
	t.Helper()
	sys := core.NewSystem(db)
	if err := sys.AddStrategy(core.NewSmallGroup(core.SmallGroupConfig{
		BaseRate: 0.1,
		Seed:     1,
		Workers:  workers,
	})); err != nil {
		t.Fatal(err)
	}
	return sys
}

// gate fronts one shard server so tests can kill it mid-connection: while
// down, every request's TCP connection is hijacked and closed without a
// response — exactly what a crashed process looks like to the coordinator.
type gate struct {
	h    http.Handler
	down atomic.Bool
	hits atomic.Int64
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.hits.Add(1)
	if g.down.Load() {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("gate: response writer cannot hijack")
		}
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
		return
	}
	g.h.ServeHTTP(w, r)
}

type testCluster struct {
	t     *testing.T
	db    *engine.Database
	co    *Coordinator
	srv   *httptest.Server
	gates []*gate
}

// newTestCluster boots n in-process shard servers over disjoint stripes of
// one dataset plus a coordinator joined to all of them, with fast fault
// timings so tripping and re-probing resolve in milliseconds.
func newTestCluster(t *testing.T, n int, mut func(*Config)) *testCluster {
	t.Helper()
	return newTestClusterOver(t, buildClusterDB(t), n, mut)
}

// newTestClusterOver is newTestCluster over a caller-built dataset.
func newTestClusterOver(t *testing.T, db *engine.Database, n int, mut func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, db: db}
	var addrs []string
	for id := 0; id < n; id++ {
		striped, err := Stripe(tc.db, id, n)
		if err != nil {
			t.Fatal(err)
		}
		g := &gate{h: server.New(newSystem(t, striped), server.Config{Shards: n, ShardID: id}).Handler()}
		srv := httptest.NewServer(g)
		t.Cleanup(srv.Close)
		tc.gates = append(tc.gates, g)
		addrs = append(addrs, srv.URL)
	}
	cfg := Config{
		ShardAddrs:       addrs,
		PerTryTimeout:    5 * time.Second,
		RetryBackoff:     5 * time.Millisecond,
		HedgeAfterMin:    5 * time.Millisecond,
		BreakerThreshold: 3,
		ProbeBackoff:     20 * time.Millisecond,
		ProbeBackoffMax:  100 * time.Millisecond,
		ProbeTimeout:     time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	if joined := co.Join(context.Background()); joined != n {
		t.Fatalf("joined %d of %d shards", joined, n)
	}
	tc.co = co
	tc.srv = httptest.NewServer(co.Handler())
	t.Cleanup(tc.srv.Close)
	return tc
}

func (tc *testCluster) post(path string, body any) (*http.Response, []byte) {
	tc.t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(tc.srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func (tc *testCluster) query(req server.QueryRequest) (int, server.QueryResponse) {
	tc.t.Helper()
	resp, body := tc.post("/v1/query", req)
	var qr server.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			tc.t.Fatalf("bad query response: %v: %s", err, body)
		}
	}
	return resp.StatusCode, qr
}

func groupTotals(qr server.QueryResponse) map[string]float64 {
	out := make(map[string]float64, len(qr.Groups))
	for _, g := range qr.Groups {
		if len(g.Key) > 0 && len(g.Values) > 0 {
			out[g.Key[0]] = g.Values[0]
		}
	}
	return out
}

// TestClusterExactMatchesSingleNode: scattering /exact over 4 shards and
// re-merging must reproduce the single-process exact answer bit-for-bit
// (integer measures, disjoint stripes).
func TestClusterExactMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	single := httptest.NewServer(server.New(newSystem(t, tc.db), server.Config{}).Handler())
	defer single.Close()

	const sql = "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region"
	resp, body := tc.post("/v1/exact", server.QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster exact: status %d: %s", resp.StatusCode, body)
	}
	var got server.QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	b, _ := json.Marshal(server.QueryRequest{SQL: sql})
	sresp, err := http.Post(single.URL+"/v1/exact", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var want server.QueryResponse
	if err := json.NewDecoder(sresp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}

	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("cluster exact has %d groups, single-node has %d", len(got.Groups), len(want.Groups))
	}
	wantByKey := map[string][]float64{}
	for _, g := range want.Groups {
		wantByKey[g.Key[0]] = g.Values
	}
	for _, g := range got.Groups {
		w, ok := wantByKey[g.Key[0]]
		if !ok {
			t.Fatalf("cluster invented group %v", g.Key)
		}
		for i := range w {
			if g.Values[i] != w[i] {
				t.Errorf("group %v value %d: cluster %v != single-node %v", g.Key, i, g.Values[i], w[i])
			}
		}
		if !g.Exact {
			t.Errorf("group %v of /exact not marked exact", g.Key)
		}
	}
	if got.Partial {
		t.Error("healthy cluster answered partial")
	}
}

// TestClusterApproximateQuery: the estimated fan-out path returns sane
// merged estimates with recomputed intervals.
func TestClusterApproximateQuery(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	code, qr := tc.query(server.QueryRequest{
		SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.Partial || len(qr.MissingShards) != 0 {
		t.Fatalf("healthy cluster answered partial: %+v", qr.MissingShards)
	}
	var total float64
	sawCI := false
	for _, g := range qr.Groups {
		total += g.Values[0]
		if len(g.CI) == 0 {
			t.Fatalf("group %v has no confidence interval", g.Key)
		}
		if ci := g.CI[0]; ci[0] > g.Values[0] || ci[1] < g.Values[0] {
			t.Errorf("group %v: value %v outside its CI %v", g.Key, g.Values[0], ci)
		}
		if g.CI[0][1] > g.CI[0][0] {
			sawCI = true
		}
	}
	if total < 5000 || total > 7000 {
		t.Errorf("estimated total count %v, want near 6000", total)
	}
	if !sawCI {
		t.Error("no group carries a non-degenerate interval; accumulators lost on the wire?")
	}
}

// TestClusterShardDeathPartialAndReadmission is the headline robustness
// scenario end to end: kill a shard mid-cluster, prove the next answer is
// partial-with-widened-bounds (never a silent hole, never a 5xx), prove the
// breaker tripped within that one request and stops subsequent fan-out,
// then restart the shard and re-admit it through half-open probes without
// touching the coordinator.
func TestClusterShardDeathPartialAndReadmission(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	req := server.QueryRequest{
		SQL:        "SELECT region, COUNT(*) FROM T GROUP BY region",
		ErrorBound: 0.8, // trivially satisfiable: forces the planner path so achieved is reported
	}
	code, baseline := tc.query(req)
	if code != http.StatusOK || baseline.Partial {
		t.Fatalf("baseline: status %d partial %v", code, baseline.Partial)
	}
	if baseline.Achieved == nil {
		t.Fatal("baseline bounded query reports no achieved error")
	}
	var baselineTotal float64
	for _, g := range baseline.Groups {
		baselineTotal += g.Values[0]
	}

	// Kill shard 2. The very next query must degrade gracefully.
	tc.gates[2].down.Store(true)
	code, partial := tc.query(req)
	if code != http.StatusOK {
		t.Fatalf("query with a dead shard: status %d, want 200 (degrade, don't fail)", code)
	}
	if !partial.Partial {
		t.Fatal("answer over 3 of 4 shards not flagged partial — a silent hole")
	}
	if len(partial.MissingShards) != 1 || partial.MissingShards[0] != 2 {
		t.Fatalf("missing_shards = %v, want [2]", partial.MissingShards)
	}
	if partial.Achieved == nil {
		t.Fatal("partial answer carries no achieved error bound")
	}
	if *partial.Achieved <= *baseline.Achieved {
		t.Errorf("partial achieved %v not widened over baseline %v",
			*partial.Achieved, *baseline.Achieved)
	}
	var partialTotal float64
	for _, g := range partial.Groups {
		partialTotal += g.Values[0]
	}
	if partialTotal >= baselineTotal {
		t.Errorf("partial total %v >= full total %v; missing shard's rows were fabricated",
			partialTotal, baselineTotal)
	}

	// The dead shard's breaker must have tripped within that single request
	// (attempt-level failure counting), so the next fan-out skips it without
	// a network attempt.
	if st := tc.co.shards[2].br.State(); st != breakerOpen && st != breakerHalfOpen {
		t.Fatalf("shard 2 breaker = %v after one failing request, want open", st)
	}
	hitsBefore := tc.gates[2].hits.Load()
	code, again := tc.query(req)
	if code != http.StatusOK || !again.Partial {
		t.Fatalf("second query with tripped breaker: status %d partial %v", code, again.Partial)
	}
	// Allow background probes (which do hit the gate) but no query traffic:
	// probes GET /shard; query fan-out POSTs. The cheap check is that the
	// query returned partial instantly; the strict one is that the breaker
	// still gates it.
	if tc.co.shards[2].br.Allow() {
		t.Fatal("tripped breaker re-admitted a still-dead shard")
	}
	_ = hitsBefore

	// Restart the shard and re-admit it via the operator probe — no
	// coordinator restart, no backoff wait.
	tc.gates[2].down.Store(false)
	resp, body := tc.post("/v1/admin/probe", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin probe: status %d: %s", resp.StatusCode, body)
	}
	var probe struct {
		Shards map[string]string `json:"shards"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Shards["2"] != "closed" {
		t.Fatalf("shard 2 state after probe = %q, want closed (probe result: %v)",
			probe.Shards["2"], probe.Shards)
	}
	code, healed := tc.query(req)
	if code != http.StatusOK {
		t.Fatalf("post-readmission query: status %d", code)
	}
	if healed.Partial {
		t.Fatalf("re-admitted cluster still answering partial: missing %v", healed.MissingShards)
	}
}

// TestClusterBreakerAutoReprobe: without any operator action, the jittered
// half-open probe loop alone re-admits a restarted shard.
func TestClusterBreakerAutoReprobe(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	req := server.QueryRequest{SQL: "SELECT region, COUNT(*) FROM T GROUP BY region"}
	tc.gates[1].down.Store(true)
	if code, qr := tc.query(req); code != http.StatusOK || !qr.Partial {
		t.Fatalf("status %d partial %v, want 200 partial", code, qr.Partial)
	}
	tc.gates[1].down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, qr := tc.query(req)
		if code == http.StatusOK && !qr.Partial {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never re-admitted the shard (status %d partial %v)", code, qr.Partial)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterFlakyShardRecoversViaRetries: transient transport faults on
// one shard are absorbed by bounded retries — the answer is complete and
// the breaker stays closed (2 failures < threshold 3, then reset).
func TestClusterFlakyShardRecoversViaRetries(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	t.Cleanup(faults.Reset)
	flaky := faults.FailUntilNth(2, errors.New("injected transport fault"))
	faults.SetErr(faults.PointShardTransport, func(i int) error {
		if i != 1 {
			return nil
		}
		return flaky(i)
	})
	code, qr := tc.query(server.QueryRequest{
		SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.Partial {
		t.Fatalf("retries did not absorb a transient fault: missing %v", qr.MissingShards)
	}
	if st := tc.co.shards[1].br.State(); st != breakerClosed {
		t.Errorf("shard 1 breaker = %v after recovered flake, want closed", st)
	}
}

// TestClusterTruncatedBodyIsTransient: a shard response cut mid-body (the
// connection died under the reply) must decode-fail client-side and be
// retried like any transient fault, not poison the merge.
func TestClusterTruncatedBodyIsTransient(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	t.Cleanup(faults.Reset)
	// Exactly one raw response (whichever shard writes first) is truncated
	// to 10 bytes; the retry sees the full body.
	faults.SetCut(faults.PointShardBody, faults.CutAfter(0, 10))
	code, qr := tc.query(server.QueryRequest{
		SQL: "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.Partial {
		t.Fatalf("truncated body escalated to a missing shard: %v", qr.MissingShards)
	}
}

// TestClusterHedgeBeatsSlowShard: one shard stalls on one request; the
// hedged duplicate (launched after the shard's recent p95 latency) answers
// long before the stall resolves.
func TestClusterHedgeBeatsSlowShard(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	// Prime the latency windows so the hedge delay is the (fast) p95, not
	// the cold-start half-deadline.
	prime := server.QueryRequest{SQL: "SELECT region, COUNT(*) FROM T GROUP BY region"}
	for i := 0; i < 3; i++ {
		if code, _ := tc.query(prime); code != http.StatusOK {
			t.Fatalf("prime query %d failed", i)
		}
	}
	// The measured query is the same query spelled apart, so the stall
	// takes only its request: a hedge a priming query launched and then
	// cancelled can still reach shard 3's handler after the hook is armed,
	// and taking the one stall it would leave the measured query nothing
	// to hedge.
	req := server.QueryRequest{SQL: "select region, count(*) from T group by region"}
	t.Cleanup(faults.Reset)
	var stalled atomic.Bool
	faults.Set(faults.PointShardRequest, func(ctx context.Context, i int) {
		if i == 3 && obs.TraceFrom(ctx).Snapshot().SQL == req.SQL && stalled.CompareAndSwap(false, true) {
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
			}
		}
	})
	hedgesBefore := obsShardHedges.With("3").Value()
	start := time.Now()
	code, qr := tc.query(req)
	elapsed := time.Since(start)
	if code != http.StatusOK || qr.Partial {
		t.Fatalf("status %d partial %v", code, qr.Partial)
	}
	if !stalled.Load() {
		t.Fatal("stall hook never fired; test exercised nothing")
	}
	if elapsed >= 1500*time.Millisecond {
		t.Errorf("query took %v; the 2s stall was on the answer path", elapsed)
	}
	if obsShardHedges.With("3").Value() == hedgesBefore {
		t.Error("no hedge launched against the stalled shard")
	}
}

// TestClusterPrunesIrrelevantShards: a predicate whose value provably lives
// only on shard 0 (complete value sets from the join summaries) must not
// generate traffic to the other shards, and the answer — served entirely
// from shard 0's small-group table — is exact, not partial.
func TestClusterPrunesIrrelevantShards(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	// Expected exact count from the base table.
	var want float64
	acc, err := tc.db.Accessor("region")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tc.db.NumRows(); i++ {
		if acc.Value(i) == engine.StringVal("westonly") {
			want++
		}
	}
	if want == 0 {
		t.Fatal("fixture has no westonly rows")
	}
	var before []int64
	for _, g := range tc.gates {
		before = append(before, g.hits.Load())
	}
	const sql = "SELECT region, COUNT(*) FROM T WHERE region = 'westonly' GROUP BY region"
	// /exact also prunes: only the one shard that can hold the value runs
	// the full scan, and the merged answer is still the true count.
	resp, body := tc.post("/v1/exact", server.QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact: status %d: %s", resp.StatusCode, body)
	}
	var ex server.QueryResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if got := groupTotals(ex)["westonly"]; got != want {
		t.Errorf("exact westonly count = %v, want %v", got, want)
	}
	if len(ex.Groups) != 1 || !ex.Groups[0].Exact {
		t.Errorf("exact groups = %+v, want the one exact westonly group", ex.Groups)
	}
	// The estimated path prunes the same way and must not call the three
	// pruned shards missing.
	code, qr := tc.query(server.QueryRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.Partial {
		t.Fatal("pruned shards were misreported as missing")
	}
	if est := groupTotals(qr)["westonly"]; est <= 0 {
		t.Errorf("estimated westonly count = %v, want positive", est)
	}
	for id := 1; id < 4; id++ {
		if delta := tc.gates[id].hits.Load() - before[id]; delta != 0 {
			t.Errorf("shard %d saw %d requests for a query its summary excludes", id, delta)
		}
	}
	if tc.gates[0].hits.Load() == before[0] {
		t.Error("shard 0 saw no traffic; who answered?")
	}
}

// TestClusterExactRefusesPartial: /exact over a cluster with a dead shard
// is a retryable 503 — an exact answer computed over a subset would be
// silently wrong, which is the one thing this tier must never do.
func TestClusterExactRefusesPartial(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.gates[1].down.Store(true)
	req := server.QueryRequest{SQL: "SELECT region, COUNT(*) FROM T GROUP BY region"}
	resp, body := tc.post("/v1/exact", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exact with dead shard: status %d, want 503: %s", resp.StatusCode, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeShardUnavailable {
		t.Errorf("error code = %q, want %q", er.Error.Code, CodeShardUnavailable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shard_unavailable 503 carries no Retry-After")
	}
	// With the breaker now open, the refusal is immediate (no fan-out).
	resp2, _ := tc.post("/v1/exact", req)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("second exact: status %d, want 503", resp2.StatusCode)
	}
}

// TestClusterFatalErrorsRelayVerbatim: request-shape errors (bad bounds,
// unknown columns) are the client's fault on every shard equally — they are
// relayed with the shard's envelope, never retried, and never trip
// breakers.
func TestClusterFatalErrorsRelayVerbatim(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	// error_bound >= 1 passes the coordinator (which leaves numeric bound
	// validation to the shards) and is rejected 400 by every shard.
	code, _ := tc.query(server.QueryRequest{
		SQL:        "SELECT region, COUNT(*) FROM T GROUP BY region",
		ErrorBound: 1.5,
	})
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want relayed 400", code)
	}
	for id, sh := range tc.co.shards {
		if st := sh.br.State(); st != breakerClosed {
			t.Errorf("shard %d breaker = %v after a fatal error, want closed (fatal must not count)", id, st)
		}
	}
	// Locally detectable garbage never reaches the shards.
	var before []int64
	for _, g := range tc.gates {
		before = append(before, g.hits.Load())
	}
	if code, _ := tc.query(server.QueryRequest{SQL: "SELECT nosuch, COUNT(*) FROM T GROUP BY nosuch"}); code != http.StatusBadRequest {
		t.Fatalf("unknown column: status %d, want 400", code)
	}
	for id, g := range tc.gates {
		if g.hits.Load() != before[id] {
			t.Errorf("shard %d saw traffic for a locally-invalid query", id)
		}
	}
}

// TestClusterMetadataEndpoints covers the operator surface: /columns
// proxies the schema with cluster-wide row counts, /healthz and /readyz
// reflect membership, /shards lists summaries.
func TestClusterMetadataEndpoints(t *testing.T) {
	tc := newTestCluster(t, 4, nil)
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(tc.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	resp, body := get("/v1/columns")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("columns: status %d", resp.StatusCode)
	}
	var cols struct {
		Database string            `json:"database"`
		Rows     int64             `json:"rows"`
		Columns  []string          `json:"columns"`
		Types    map[string]string `json:"types"`
	}
	if err := json.Unmarshal(body, &cols); err != nil {
		t.Fatal(err)
	}
	if cols.Database != "salesdb" || cols.Rows != 6000 {
		t.Errorf("columns = %+v, want salesdb with 6000 cluster-wide rows", cols)
	}
	if cols.Types["region"] != "VARCHAR" || cols.Types["amount"] != "INT" {
		t.Errorf("types = %v", cols.Types)
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hz struct {
		Status string        `json:"status"`
		Shards []ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || len(hz.Shards) != 4 {
		t.Errorf("healthz = %+v", hz)
	}
	for _, s := range hz.Shards {
		if !s.Joined || s.State != "closed" || s.Rows != 1500 {
			t.Errorf("shard status %+v, want joined/closed with 1500 rows", s)
		}
	}
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz: status %d", resp.StatusCode)
	}
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("aqp_cluster_shard_requests_total")) {
		t.Errorf("metrics: status %d, cluster families missing", resp.StatusCode)
	}
}

// TestClusterAllShardsDown: with every shard dead the coordinator still
// answers structurally — a retryable 503, not a hang or a panic.
func TestClusterAllShardsDown(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.gates[0].down.Store(true)
	tc.gates[1].down.Store(true)
	resp, body := tc.post("/v1/query", server.QueryRequest{
		SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeShardUnavailable || er.Error.RetryAfterMS <= 0 {
		t.Errorf("envelope = %+v, want shard_unavailable with retry hint", er.Error)
	}
}
