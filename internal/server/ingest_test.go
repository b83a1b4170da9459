package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/faults"
	"dynsample/internal/ingest"
)

// ingestServer builds the full live-ingestion stack: the shared sales
// fixture, a WAL in a temp dir, a coordinator, and a server with rebuilds
// configured so the drift trigger has something to fire.
func ingestServer(t *testing.T, icfg ingest.Config) (*httptest.Server, *ingest.Coordinator, *core.System) {
	t.Helper()
	// DistinctLimit must exceed the fixture's ~540 distinct regions or the
	// column gets no small group table (τ cutoff) and nothing to maintain.
	sgCfg := core.SmallGroupConfig{BaseRate: 0.05, SmallGroupFraction: 0.05, DistinctLimit: 2000, Seed: 1}
	sys := testSystem(t, sgCfg)
	w, err := ingest.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if icfg.Online.SmallGroupFraction == 0 {
		icfg.Online.SmallGroupFraction = sgCfg.SmallGroupFraction
	}
	coord, err := ingest.New(sys, w, icfg)
	if err != nil {
		t.Fatal(err)
	}
	sgCfg.Seed = 1
	s := New(sys, Config{
		Ingest:  coord,
		Rebuild: RebuildConfig{Strategy: core.NewSmallGroup(sgCfg)},
	})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, coord, sys
}

func TestIngestEndpoint(t *testing.T) {
	srv, _, _ := ingestServer(t, ingest.Config{Online: core.OnlineConfig{Seed: 3}})

	resp, body := post(t, srv, "/v1/ingest", IngestRequest{
		Columns: []string{"region", "amount"},
		Rows: [][]json.RawMessage{
			{json.RawMessage(`"zz"`), json.RawMessage(`10.5`)},
			{json.RawMessage(`"zz"`), json.RawMessage(`4.5`)},
			{json.RawMessage(`"ra"`), json.RawMessage(`1`)},
		},
		BatchID: "b-1",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Rows != 3 || ir.Generation != 1 || ir.Duplicate {
		t.Fatalf("response = %+v, want 3 rows at generation 1", ir)
	}

	// The ingested rows are queryable immediately, and the answer reports
	// the generation it covers. "zz" is brand new, so it is outside the
	// common set and must be exact.
	resp, body = post(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Generation != 1 {
		t.Errorf("query generation = %d, want 1", qr.Generation)
	}
	found := false
	for _, g := range qr.Groups {
		if g.Key[0] == "zz" {
			found = true
			if !g.Exact {
				t.Error("new rare group zz not exact")
			}
			if g.Values[0] != 2 || g.Values[1] != 15 {
				t.Errorf("zz = %v, want [2 15]", g.Values)
			}
		}
	}
	if !found {
		t.Error("ingested group zz missing from query answer")
	}

	// /v1/exact sees the appended base rows too and reports the generation.
	resp, body = post(t, srv, "/v1/exact", QueryRequest{
		SQL: "SELECT COUNT(*) FROM T WHERE region = 'zz'",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact status %d: %s", resp.StatusCode, body)
	}
	qr = QueryResponse{}
	json.Unmarshal(body, &qr)
	if qr.Generation != 1 || len(qr.Groups) != 1 || qr.Groups[0].Values[0] != 2 {
		t.Errorf("exact answer %+v, want 2 zz rows at generation 1", qr)
	}

	// Retrying the same batch id must not append again.
	resp, body = post(t, srv, "/v1/ingest", IngestRequest{
		Rows:    [][]json.RawMessage{{json.RawMessage(`"zz"`), json.RawMessage(`10.5`)}},
		BatchID: "b-1",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate status %d: %s", resp.StatusCode, body)
	}
	ir = IngestResponse{}
	json.Unmarshal(body, &ir)
	if !ir.Duplicate || ir.Generation != 1 || ir.Rows != 3 {
		t.Fatalf("duplicate response = %+v, want original stats flagged duplicate", ir)
	}
}

func TestIngestRequestIDIdempotency(t *testing.T) {
	srv, coord, _ := ingestServer(t, ingest.Config{Online: core.OnlineConfig{Seed: 4}})
	send := func() IngestResponse {
		b, _ := json.Marshal(IngestRequest{
			Rows: [][]json.RawMessage{{json.RawMessage(`"qq"`), json.RawMessage(`1.0`)}},
		})
		req, _ := http.NewRequest("POST", srv.URL+"/v1/ingest", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", "retry-77")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var ir IngestResponse
		json.NewDecoder(resp.Body).Decode(&ir)
		return ir
	}
	if ir := send(); ir.Duplicate {
		t.Fatal("first send flagged duplicate")
	}
	if ir := send(); !ir.Duplicate {
		t.Fatal("X-Request-ID retry not deduplicated")
	}
	if g := coord.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
}

func TestIngestBadRequests(t *testing.T) {
	srv, _, _ := ingestServer(t, ingest.Config{Online: core.OnlineConfig{Seed: 5}})
	cases := []struct {
		name string
		body IngestRequest
	}{
		{"empty", IngestRequest{}},
		{"short row", IngestRequest{Rows: [][]json.RawMessage{{json.RawMessage(`"x"`)}}}},
		{"wrong type", IngestRequest{Rows: [][]json.RawMessage{{json.RawMessage(`7`), json.RawMessage(`1.0`)}}}},
		{"non-number amount", IngestRequest{Rows: [][]json.RawMessage{{json.RawMessage(`"x"`), json.RawMessage(`"ten"`)}}}},
		{"columns mismatch", IngestRequest{
			Columns: []string{"amount", "region"},
			Rows:    [][]json.RawMessage{{json.RawMessage(`"x"`), json.RawMessage(`1.0`)}},
		}},
	}
	for _, tc := range cases {
		resp, body := post(t, srv, "/v1/ingest", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
	}
}

// TestStrictRequestBodies: a query or ingest body with a field the request
// does not declare, or with anything but whitespace after its object, is a
// 400 bad_request naming the field. Before, a camelCase "errorBound" ran the
// query unbounded and a "batchId" lost idempotency, so a retried batch
// appended its rows twice.
func TestStrictRequestBodies(t *testing.T) {
	srv, coord, _ := ingestServer(t, ingest.Config{Online: core.OnlineConfig{Seed: 7}})
	const sql = "SELECT region, COUNT(*) FROM T GROUP BY region"
	batch := `{"batchId":"b-1","rows":[["zz",1.5]]}`
	for _, c := range []struct{ path, body, want string }{
		{"/v1/query", `{"sql":"` + sql + `","errorBound":0.05}`, `unknown field "errorBound"`},
		{"/v1/exact", `{"sql":"` + sql + `","raw":true,"shard":1}`, `unknown field "shard"`},
		{"/v1/query", `{"sql":"` + sql + `"} {"sql":"` + sql + `"}`, "data after the JSON object"},
		{"/v1/query", `{"sql":"` + sql + `"}x`, "data after the JSON object"},
		{"/v1/ingest", batch, `unknown field "batchId"`},
		{"/v1/ingest", batch, `unknown field "batchId"`}, // the retry
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Error.Code != CodeBadRequest || !strings.Contains(er.Error.Message, c.want) {
			t.Errorf("%s %s: %d %+v, want 400 bad_request naming %s", c.path, c.body, resp.StatusCode, er.Error, c.want)
		}
	}
	if g := coord.Generation(); g != 0 {
		t.Errorf("refused batches moved the data generation to %d", g)
	}
	// Whitespace after the object is not data.
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(`{"sql":"`+sql+`"}`+" \n\t "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a body ending in whitespace: status %d", resp.StatusCode)
	}
}

// TestIngestWALFailureDegrades: a WAL fsync failure is the server's fault,
// not the request's — it latches read-only degraded mode and surfaces as a
// retryable 503 with Retry-After (so clients keep the batch and retry) rather
// than 400 or a permanent 500, and once the disk heals a probe restores
// ingest without a restart.
func TestIngestWALFailureDegrades(t *testing.T) {
	srv, coord, _ := ingestServer(t, ingest.Config{
		Online:       core.OnlineConfig{Seed: 6},
		ProbeBackoff: time.Hour, // drive recovery via ProbeNow, not the background loop
	})
	faults.SetErr(faults.PointWALSync, faults.FailNth(0, errors.New("disk full")))
	t.Cleanup(faults.Reset)
	req := IngestRequest{
		Rows: [][]json.RawMessage{{json.RawMessage(`"zz"`), json.RawMessage(`1.5`)}},
	}
	resp, body := post(t, srv, "/v1/ingest", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503 for a WAL failure", resp.StatusCode, body)
	}
	if er := decodeErr(t, body); er.Error.Code != CodeIngestDegraded {
		t.Fatalf("code %q, want %q", er.Error.Code, CodeIngestDegraded)
	}
	// The degraded hint is 5s, jittered over [5, 10] (see retryAfterSecs).
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 5 || ra > 10 {
		t.Fatalf("degraded 503 Retry-After = %q, want in [5, 10]", resp.Header.Get("Retry-After"))
	}
	faults.Reset()
	if err := coord.ProbeNow(); err != nil {
		t.Fatalf("probe after the fault cleared: %v", err)
	}
	resp, body = post(t, srv, "/v1/ingest", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after the fault cleared: %d (%s)", resp.StatusCode, body)
	}
}

func TestIngestNotConfigured(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv, "/v1/ingest", IngestRequest{
		Rows: [][]json.RawMessage{{json.RawMessage(`"x"`), json.RawMessage(`1.0`)}},
	})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d (%s), want 501", resp.StatusCode, body)
	}
}

// TestIngestDriftTriggersRebuild is the drift acceptance test: stream a
// brand-new heavy value through the HTTP surface until it crosses the t·|T|
// threshold, and require the drift gauge to flip, exactly one background
// rebuild to run, and every query issued meanwhile to succeed.
func TestIngestDriftTriggersRebuild(t *testing.T) {
	srv, _, _ := ingestServer(t, ingest.Config{
		Online:     core.OnlineConfig{Seed: 6},
		DriftBound: 1.0,
	})

	hot := func(n int) [][]json.RawMessage {
		rows := make([][]json.RawMessage, n)
		for i := range rows {
			rows[i] = []json.RawMessage{json.RawMessage(`"hh"`), json.RawMessage(`2.0`)}
		}
		return rows
	}
	crossed := false
	for i := 0; i < 40 && !crossed; i++ {
		resp, body := post(t, srv, "/v1/ingest", IngestRequest{Rows: hot(200)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
		var ir IngestResponse
		json.Unmarshal(body, &ir)
		crossed = ir.Drift >= 1
		// Queries must keep succeeding while drift builds and the rebuild
		// runs in the background.
		qresp, qbody := post(t, srv, "/v1/query", QueryRequest{
			SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
		})
		if qresp.StatusCode != http.StatusOK {
			t.Fatalf("query failed during drift buildup: %d %s", qresp.StatusCode, qbody)
		}
	}
	if !crossed {
		t.Fatal("drift never crossed the bound")
	}

	// The background rebuild completes, and it is the only one: the server
	// health generation moves 0 -> 1.
	var h HealthResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		h = HealthResponse{}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.LastRebuildError != "" {
			t.Fatalf("rebuild error: %s", h.LastRebuildError)
		}
		if h.Generation >= 1 && !h.Rebuilding {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drift-triggered rebuild never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h.Generation != 1 {
		t.Fatalf("health generation = %d after drift, want exactly 1 rebuild", h.Generation)
	}

	// The rebuild reset the gauge: hh is common once the rebuild re-derives
	// the metadata, so more of it leaves the drift below the bound.
	resp, body := post(t, srv, "/v1/ingest", IngestRequest{Rows: hot(1)})
	var ir IngestResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ir) != nil {
		t.Fatalf("ingest after the rebuild: status %d: %s", resp.StatusCode, body)
	}
	if ir.Drift >= 1 {
		t.Fatalf("drift = %g after the rebuild, want < 1 (hh is common now)", ir.Drift)
	}

	// And the rebuilt samples answer for the new value without exactness
	// loss elsewhere.
	qresp, qbody := post(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM T WHERE region = 'hh'",
	})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("post-rebuild query: %d %s", qresp.StatusCode, qbody)
	}
}
