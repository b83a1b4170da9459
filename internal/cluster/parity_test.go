package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/server"
)

// surfaceAnswer is what a client can tell two tiers apart by.
type surfaceAnswer struct {
	status  int
	code    string // envelope code on non-2xx
	columns []string
	groups  []server.GroupJSON
}

func surface(t *testing.T, base, method, path, body string) surfaceAnswer {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	ans := surfaceAnswer{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s %s: non-2xx body is not the envelope: %s", method, path, data)
		}
		ans.code = er.Error.Code
		return ans
	}
	if resp.Header.Get("Content-Type") == "application/octet-stream" {
		// A raw answer is a frame, not a presented one: it holds no columns.
		if _, err := server.DecodeRaw(data); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return ans
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("%s %s: %v: %s", method, path, err, data)
	}
	ans.columns, ans.groups = qr.Columns, qr.Groups
	return ans
}

// TestSurfaceParity: a single-node server and a coordinator over one healthy
// shard are the same pipeline over two back ends, so the same request must
// get the same status, envelope code, columns and groups from both — and a
// request the pipeline rejects before execution must cost no shard traffic.
func TestSurfaceParity(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	single := httptest.NewServer(server.New(newSystem(t, tc.db), server.Config{}).Handler())
	defer single.Close()

	const sql = "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region"
	cases := []struct {
		name, method, path, body string
		status                   int  // expected on both tiers
		executes                 bool // reaches the back end
		coordStatus              int  // when the tiers legitimately differ
	}{
		{name: "good query", path: "/v1/query", body: `{"sql":"` + sql + `"}`, status: 200, executes: true},
		{name: "bounded query", path: "/v1/query", body: `{"sql":"` + sql + `","error_bound":0.9}`, status: 200, executes: true},
		{name: "exact", path: "/v1/exact", body: `{"sql":"` + sql + `"}`, status: 200, executes: true},
		{name: "exact with bounds", path: "/v1/exact", body: `{"sql":"` + sql + `","error_bound":0.5}`, status: 400},
		{name: "empty sql", path: "/v1/query", body: `{"sql":"  "}`, status: 400},
		{name: "bad sql", path: "/v1/query", body: `{"sql":"SELEC nonsense"}`, status: 400},
		{name: "unknown column", path: "/v1/query", body: `{"sql":"SELECT COUNT(*) FROM T WHERE missing = 1"}`, status: 400},
		{name: "timeout_ms 0", path: "/v1/query", body: `{"sql":"` + sql + `","timeout_ms":0}`, status: 400},
		{name: "timeout_ms -5", path: "/v1/exact", body: `{"sql":"` + sql + `","timeout_ms":-5}`, status: 400},
		{name: "error_bound 1.5", path: "/v1/query", body: `{"sql":"` + sql + `","error_bound":1.5}`, status: 400},
		{name: "confidence without a bound", path: "/v1/query", body: `{"sql":"` + sql + `","confidence":0.9}`, status: 400},
		// Raw accumulators are a capability of the local back end only.
		{name: "raw", path: "/v1/query", body: `{"sql":"` + sql + `","raw":true}`, status: 200, coordStatus: 400},
		{name: "unknown route", path: "/v1/nope", body: `{}`, status: 404},
		{name: "un-versioned query", path: "/query", body: `{"sql":"` + sql + `"}`, status: 404},
		{name: "un-versioned columns", method: "GET", path: "/columns", status: 404},
	}
	for _, c := range cases {
		if c.method == "" {
			c.method = "POST"
		}
		if c.coordStatus == 0 {
			c.coordStatus = c.status
		}
		want := surface(t, single.URL, c.method, c.path, c.body)
		before := tc.gates[0].hits.Load()
		got := surface(t, tc.srv.URL, c.method, c.path, c.body)
		traffic := tc.gates[0].hits.Load() - before

		if want.status != c.status || got.status != c.coordStatus {
			t.Errorf("%s: status single=%d coordinator=%d, want %d and %d",
				c.name, want.status, got.status, c.status, c.coordStatus)
			continue
		}
		if !c.executes && traffic != 0 {
			t.Errorf("%s: rejected before execution but cost %d shard requests", c.name, traffic)
		}
		if c.executes && traffic == 0 {
			t.Errorf("%s: answered without any shard traffic", c.name)
		}
		if c.status != c.coordStatus {
			continue
		}
		if got.code != want.code {
			t.Errorf("%s: envelope code single=%q coordinator=%q", c.name, want.code, got.code)
		}
		if !reflect.DeepEqual(got.columns, want.columns) {
			t.Errorf("%s: columns single=%v coordinator=%v", c.name, want.columns, got.columns)
		}
		// Integer measures over the same single stripe: bit-identical values,
		// flags and intervals.
		if !reflect.DeepEqual(got.groups, want.groups) {
			t.Errorf("%s: groups differ\nsingle:      %+v\ncoordinator: %+v", c.name, want.groups, got.groups)
		}
	}

	// The worker budget is not part of the surface: over a base table of
	// several scan shards, /v1/exact — which scans on the strategy's budget —
	// and /v1/query answer the same at every budget.
	big := buildClusterDBRows(t, 3*engine.ScanShardRows+500)
	const avg = "SELECT region, COUNT(*), AVG(amount) FROM T GROUP BY region"
	var want [2]surfaceAnswer
	for _, workers := range []int{1, 2, 5} {
		srv := httptest.NewServer(server.New(newSystemWorkers(t, big, workers), server.Config{}).Handler())
		for i, path := range []string{"/v1/exact", "/v1/query"} {
			got := surface(t, srv.URL, "POST", path, `{"sql":"`+avg+`"}`)
			if workers == 1 {
				want[i] = got
			}
			if got.status != 200 || !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s at %d workers: %+v, want the one-worker answer %+v", path, workers, got, want[i])
			}
		}
		srv.Close()
	}
}

// TestQuotedKeysSurviveEveryPresenter: a string key that itself starts or
// ends with a single quote must come back byte-for-byte from /v1/query,
// /v1/exact and a coordinator answer (the old presenters stripped quotes
// with strings.Trim(v.String(), "'"), mangling 'quoted' and O').
func TestQuotedKeysSurviveEveryPresenter(t *testing.T) {
	values := []string{"'quoted'", "O'", "plain"}
	region := engine.NewColumn("region", engine.String)
	amount := engine.NewColumn("amount", engine.Int)
	fact := engine.NewTable("sales", region, amount)
	for i := 0; i < 600; i++ {
		region.AppendString(values[i%len(values)])
		amount.AppendInt(int64(i%7 + 1))
		fact.EndRow()
	}
	tc := newTestClusterOver(t, engine.MustNewDatabase("salesdb", fact), 2, nil)
	single := httptest.NewServer(server.New(newSystem(t, tc.db), server.Config{}).Handler())
	defer single.Close()

	body := `{"sql":"SELECT region, COUNT(*) FROM T GROUP BY region"}`
	for _, base := range []string{single.URL, tc.srv.URL} {
		for _, path := range []string{"/v1/query", "/v1/exact"} {
			ans := surface(t, base, "POST", path, body)
			if ans.status != http.StatusOK {
				t.Fatalf("%s%s: status %d", base, path, ans.status)
			}
			var keys []string
			for _, g := range ans.groups {
				keys = append(keys, g.Key[0])
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, values) {
				t.Errorf("%s%s: keys %q, want %q", base, path, keys, values)
			}
		}
	}
}
