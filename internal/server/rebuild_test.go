package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// rebuildFixture is a server with a catalog-backed rebuild configured over
// the shared test database.
func rebuildFixture(t *testing.T) (*Server, *httptest.Server, *catalog.Catalog, *engine.Database) {
	t.Helper()
	sys := testSystem(t, core.SmallGroupConfig{Workers: 4})
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Rebuild: RebuildConfig{
		Strategy: core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.05, Seed: 1, Workers: 4}),
		Catalog:  cat,
		Workers:  4,
	}}
	srv := New(sys, cfg)
	srv.MarkGeneration(0, "preprocess")
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, cat, sys.DB()
}

// normalizeResponse strips the fields that legitimately vary run to run
// (latency, rows read can differ only if sampling differed — keep it).
func normalizeResponse(t *testing.T, body []byte) QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	qr.ElapsedUS = 0
	return qr
}

// TestRebuildUnderLoadZeroFailures is the acceptance criterion: concurrent
// query load across several generation swaps sees zero failed requests, and
// after the rebuild the answers are bit-identical to a cold build of the
// same data with the same strategy configuration.
func TestRebuildUnderLoadZeroFailures(t *testing.T) {
	_, hs, cat, db := rebuildFixture(t)
	q := QueryRequest{SQL: "SELECT region, COUNT(*), AVG(amount) FROM T GROUP BY region"}

	const queriers = 8
	var failures, total atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := post(t, hs, "/v1/query", q)
				total.Add(1)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("query failed during rebuild: %d %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	// Several rebuilds while the hammering goes on.
	for i := 1; i <= 3; i++ {
		resp, body := post(t, hs, "/v1/admin/rebuild", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebuild %d: %d %s", i, resp.StatusCode, body)
		}
		var st RebuildStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Generation != uint64(i) || !st.Persisted {
			t.Fatalf("rebuild %d status = %+v", i, st)
		}
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d/%d requests failed across rebuilds", failures.Load(), total.Load())
	}
	if total.Load() == 0 {
		t.Fatal("no queries ran during rebuilds")
	}
	if gens := cat.Generations(); len(gens) != 3 {
		t.Fatalf("catalog generations = %v", gens)
	}

	// Determinism: a cold build of the same data with the rebuild strategy's
	// exact configuration must answer bit-identically to the served state.
	coldSys := core.NewSystem(db)
	if err := coldSys.AddStrategy(core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.05, Seed: 1, Workers: 4})); err != nil {
		t.Fatal(err)
	}
	coldSrv := httptest.NewServer(New(coldSys, Config{}).Handler())
	defer coldSrv.Close()
	_, hotBody := post(t, hs, "/v1/query", q)
	_, coldBody := post(t, coldSrv, "/v1/query", q)
	hot, cold := normalizeResponse(t, hotBody), normalizeResponse(t, coldBody)
	if !reflect.DeepEqual(hot, cold) {
		t.Fatalf("rebuilt answers diverge from cold build:\nhot:  %+v\ncold: %+v", hot, cold)
	}
}

// TestRebuildSingleFlight: concurrent rebuild requests coalesce — one wins,
// the others fail fast with 409 rebuild_in_progress.
func TestRebuildSingleFlight(t *testing.T) {
	srv, hs, _, _ := rebuildFixture(t)
	// Hold the single-flight slot directly so the HTTP request deterministically
	// collides with an "in-progress" rebuild.
	if !srv.health.rebuilding.CompareAndSwap(false, true) {
		t.Fatal("fixture already rebuilding")
	}
	resp, body := post(t, hs, "/v1/admin/rebuild", struct{}{})
	srv.health.rebuilding.Store(false)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent rebuild: %d %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != CodeRebuildInProgress {
		t.Fatalf("error body = %s", body)
	}
	// Slot released: the next rebuild succeeds.
	resp, body = post(t, hs, "/v1/admin/rebuild", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild after release: %d %s", resp.StatusCode, body)
	}
}

// TestRebuildNotConfigured: without a strategy the endpoint reports 501
// instead of crashing.
func TestRebuildNotConfigured(t *testing.T) {
	hs := testServer(t)
	resp, body := post(t, hs, "/v1/admin/rebuild", struct{}{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unconfigured rebuild: %d %s", resp.StatusCode, body)
	}
}

// TestRebuildPersistedSnapshotRoundTrips: the generation a rebuild persists
// is loadable by catalog recovery and answers like the serving state.
func TestRebuildPersistedSnapshotRoundTrips(t *testing.T) {
	_, hs, cat, _ := rebuildFixture(t)
	if resp, body := post(t, hs, "/v1/admin/rebuild", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: %d %s", resp.StatusCode, body)
	}
	var p core.Prepared
	res, err := cat.LoadLatest(func(r io.Reader) error {
		var derr error
		p, derr = core.LoadSmallGroup(r)
		return derr
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || p == nil || p.SampleRows() == 0 {
		t.Fatalf("recovered gen %d, rows %v", res.Generation, p)
	}
}

func TestHealthzReadyzEndpoints(t *testing.T) {
	srv, hs, _, _ := rebuildFixture(t)
	srv.MarkGeneration(7, "snapshot")

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Generation != 7 || h.Source != "snapshot" || h.Rebuilding {
		t.Fatalf("healthz = %+v", h)
	}
	if _, err := time.Parse(time.RFC3339, h.LastRebuild); err != nil {
		t.Fatalf("lastRebuild %q: %v", h.LastRebuild, err)
	}

	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var r ReadyResponse
	json.NewDecoder(resp.Body).Decode(&r)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !r.Ready {
		t.Fatalf("readyz = %d %+v", resp.StatusCode, r)
	}

	// After a rebuild, healthz reflects the new generation and source.
	if resp, body := post(t, hs, "/v1/admin/rebuild", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: %d %s", resp.StatusCode, body)
	}
	resp, _ = http.Get(hs.URL + "/healthz")
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Generation != 1 || h.Source != "rebuild" {
		t.Fatalf("healthz after rebuild = %+v", h)
	}
}

// TestReadyzNotReady: a server whose strategy has no prepared state reports
// 503 so orchestrators keep traffic away.
func TestReadyzNotReady(t *testing.T) {
	region := engine.NewColumn("region", engine.String)
	fact := engine.NewTable("sales", region)
	rng := randx.New(3)
	for i := 0; i < 10; i++ {
		region.AppendString(string(rune('a' + rng.Intn(3))))
		fact.EndRow()
	}
	sys := core.NewSystem(engine.MustNewDatabase("d", fact))
	hs := httptest.NewServer(New(sys, Config{}).Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var r ReadyResponse
	json.NewDecoder(resp.Body).Decode(&r)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || r.Ready || r.Reason == "" {
		t.Fatalf("readyz = %d %+v", resp.StatusCode, r)
	}
}

// TestAutoRebuildTicks: the periodic rebuild loop advances generations and
// stops when its context is cancelled.
func TestAutoRebuildTicks(t *testing.T) {
	if testing.Short() {
		t.Skip("timer-driven")
	}
	srv, hs, cat, _ := rebuildFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		srv.AutoRebuild(ctx, 50*time.Millisecond)
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for cat.Generation() < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AutoRebuild did not stop on cancel")
	}
	if g := cat.Generation(); g < 2 {
		t.Fatalf("auto rebuild reached generation %d, want >= 2", g)
	}
	// Server still healthy afterwards.
	if resp, body := post(t, hs, "/v1/query", QueryRequest{SQL: "SELECT region, COUNT(*) FROM T GROUP BY region"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after auto rebuilds: %d %s", resp.StatusCode, body)
	}
}
