package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
)

// shardServer boots the fixture system in shard mode (slot 1 of 4).
func shardServer(t *testing.T) *httptest.Server {
	t.Helper()
	sys := testSystem(t, core.SmallGroupConfig{Workers: 2})
	srv := httptest.NewServer(New(sys, Config{Shards: 4, ShardID: 1}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestRawQueryResponse(t *testing.T) {
	srv := shardServer(t)
	resp, body := post(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region",
		Raw: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var raw RawQueryResponse
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	res, err := engine.ResultFromWire(raw.Result)
	if err != nil {
		t.Fatalf("raw result does not decode: %v", err)
	}
	if res.NumGroups() == 0 {
		t.Fatal("raw result has no groups")
	}
	if len(res.GroupBy) != 1 || res.GroupBy[0] != "region" {
		t.Errorf("raw groupBy = %v", res.GroupBy)
	}
	if len(res.Aggs) != 2 {
		t.Errorf("raw aggs = %v", res.Aggs)
	}
	// The raw accumulators must be merge-ready: every estimated group needs
	// variance state for the coordinator to rebuild intervals.
	sawVar := false
	for _, g := range res.Groups() {
		if !g.Exact {
			for _, v := range g.VarAcc {
				if v > 0 {
					sawVar = true
				}
			}
		}
		if g.RawRows <= 0 {
			t.Errorf("group %v has no raw row count", g.Key)
		}
	}
	if !sawVar {
		t.Error("no variance accumulators survived the wire")
	}
}

func TestRawExactResponse(t *testing.T) {
	srv := shardServer(t)
	resp, body := post(t, srv, "/v1/exact", QueryRequest{
		SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
		Raw: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var raw RawQueryResponse
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	res, err := engine.ResultFromWire(raw.Result)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, g := range res.Groups() {
		total += g.Vals[0]
	}
	if total != 20000 {
		t.Errorf("exact raw COUNT total = %v, want 20000", total)
	}
}

func TestShardSummaryEndpoint(t *testing.T) {
	srv := shardServer(t)
	get := func() *core.ShardStats {
		resp, err := http.Get(srv.URL + "/v1/shard")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/shard status %d", resp.StatusCode)
		}
		var st core.ShardStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return &st
	}
	st := get()
	if st.ShardID != 1 || st.Shards != 4 {
		t.Errorf("shard slot = %d/%d, want 1/4", st.ShardID, st.Shards)
	}
	if st.Rows != 20000 || st.SampleRows <= 0 || st.ScanRowsPerSecond <= 0 {
		t.Errorf("summary = %+v", st)
	}
	if _, ok := st.Columns["region"]; !ok {
		t.Error("region column not summarised")
	}
	// Second fetch at the same generation must serve the cache (same values).
	st2 := get()
	if st2.Generation != st.Generation || st2.Rows != st.Rows {
		t.Errorf("cached summary differs: %+v vs %+v", st2, st)
	}
}

func TestShardEndpointAbsentOutsideShardMode(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/shard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/shard outside shard mode = %d, want 404", resp.StatusCode)
	}
}

// TestShardBodyCutTruncatesResponse proves the byte-truncation fault is
// observable client-side as an unexpected EOF mid-body, which is what the
// coordinator's decoder must treat as a transient shard failure.
func TestShardBodyCutTruncatesResponse(t *testing.T) {
	srv := shardServer(t)
	t.Cleanup(faults.Reset)
	faults.SetCut(faults.PointShardBody, faults.CutAfter(0, 10))
	resp, body := post(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT region, COUNT(*) FROM T GROUP BY region",
		Raw: true,
	})
	resp.Body.Close()
	var raw RawQueryResponse
	err := json.Unmarshal(body, &raw)
	if err == nil && raw.Result != nil {
		t.Fatal("truncated body still decoded to a full raw response")
	}
}

// TestRetryAfterJitter is the satellite regression test: shed 503s must
// spread their Retry-After over [secs, 2·secs] rather than synchronizing
// every rejected client on the same second.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		secs := retryAfterSecs(time.Second, time.Second)
		if secs < 1 || secs > 2 {
			t.Fatalf("retryAfterSecs(1s) = %d, want in [1, 2]", secs)
		}
		seen[secs] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("no jitter: saw %v, want both 1 and 2 over 200 draws", seen)
	}
	// Fallback path when unconfigured.
	for i := 0; i < 50; i++ {
		if secs := retryAfterSecs(0, 4*time.Second); secs < 4 || secs > 8 {
			t.Fatalf("retryAfterSecs(0, 4s) = %d, want in [4, 8]", secs)
		}
	}
}

// TestShedRetryAfterHeaderJittered drives the real admission gate and
// checks the emitted header stays within the jitter envelope and matches
// the body's retry_after_ms.
func TestShedRetryAfterHeaderJittered(t *testing.T) {
	sys := testSystem(t, core.SmallGroupConfig{})
	blocked := New(sys, Config{MaxInflight: 1, RetryAfter: 2 * time.Second})
	// Fill the only admission slot so the next request sheds.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	held := make(chan struct{})
	go blocked.pipe.admit("query", func(w http.ResponseWriter, r *http.Request) {
		close(held)
		<-release
	})(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	<-held
	rec := httptest.NewRecorder()
	blocked.pipe.admit("query", func(http.ResponseWriter, *http.Request) {
		t.Error("shed request reached the handler")
	})(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	var er ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	ra := rec.Header().Get("Retry-After")
	if ra != "2" && ra != "3" && ra != "4" {
		t.Errorf("Retry-After = %q, want within [2, 4]", ra)
	}
	if er.Error.RetryAfterMS < 2000 || er.Error.RetryAfterMS > 4000 {
		t.Errorf("retry_after_ms = %d, want within [2000, 4000]", er.Error.RetryAfterMS)
	}
}
