package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// testSystem builds the shared fixture: a skewed sales table with small
// group sampling pre-processed. cfg tweaks are applied over the base config.
func testSystem(t testing.TB, cfg core.SmallGroupConfig) *core.System {
	t.Helper()
	region := engine.NewColumn("region", engine.String)
	amount := engine.NewColumn("amount", engine.Float)
	fact := engine.NewTable("sales", region, amount)
	rng := randx.New(31)
	zi := randx.NewZipf(1.5, 40)
	for i := 0; i < 20000; i++ {
		region.AppendString("r" + string(rune('a'+zi.Draw(rng)%26)) + string(rune('a'+zi.Draw(rng)%26)))
		amount.AppendFloat(rng.Float64() * 100)
		fact.EndRow()
	}
	db := engine.MustNewDatabase("salesdb", fact)
	sys := core.NewSystem(db)
	if cfg.BaseRate == 0 {
		cfg.BaseRate = 0.05
	}
	cfg.Seed = 1
	if err := sys.AddStrategy(core.NewSmallGroup(cfg)); err != nil {
		t.Fatal(err)
	}
	return sys
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	// Workers > 1 so every request exercises the parallel execution layer
	// (step fan-out + partitioned scans) — especially under -race.
	sys := testSystem(t, core.SmallGroupConfig{Workers: 4})
	srv := httptest.NewServer(New(sys, Config{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv, "/v1/query", QueryRequest{
		SQL:     "SELECT region, COUNT(*), AVG(amount) FROM T GROUP BY region",
		Explain: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Columns) != 3 || qr.Columns[0] != "region" {
		t.Errorf("columns = %v", qr.Columns)
	}
	if len(qr.Groups) == 0 {
		t.Fatal("no groups")
	}
	sawExact := false
	for _, g := range qr.Groups {
		if len(g.Key) != 1 || len(g.Values) != 2 || len(g.CI) != 2 {
			t.Fatalf("group shape wrong: %+v", g)
		}
		if g.CI[0][0] > g.Values[0] || g.CI[0][1] < g.Values[0] {
			t.Errorf("CI %v excludes estimate %g", g.CI[0], g.Values[0])
		}
		if g.Exact {
			sawExact = true
			if g.CI[0][0] != g.CI[0][1] {
				t.Errorf("exact group with nonzero CI width: %v", g.CI[0])
			}
		}
	}
	if !sawExact {
		t.Error("no exact groups on skewed data")
	}
	if !strings.Contains(qr.Rewrite, "UNION ALL") {
		t.Errorf("explain did not return the rewrite: %q", qr.Rewrite)
	}
	if qr.RowsRead <= 0 {
		t.Errorf("rowsRead = %d", qr.RowsRead)
	}
}

func TestExactEndpointAgreesOnExactGroups(t *testing.T) {
	srv := testServer(t)
	q := QueryRequest{SQL: "SELECT region, COUNT(*) FROM T GROUP BY region"}
	_, approxBody := post(t, srv, "/v1/query", q)
	_, exactBody := post(t, srv, "/v1/exact", q)
	var approx, exact QueryResponse
	json.Unmarshal(approxBody, &approx)
	json.Unmarshal(exactBody, &exact)
	exactByKey := map[string]float64{}
	for _, g := range exact.Groups {
		exactByKey[g.Key[0]] = g.Values[0]
	}
	for _, g := range approx.Groups {
		if g.Exact && exactByKey[g.Key[0]] != g.Values[0] {
			t.Errorf("exact-flagged group %s: %g vs truth %g", g.Key[0], g.Values[0], exactByKey[g.Key[0]])
		}
	}
}

// TestExactGroupFloatIntervalsCoverTruth: an exact-flagged group's float SUM
// and AVG are added up in a different order than /v1/exact's, so they may
// sit an ulp away from it; their intervals must still contain the truth and
// stay negligibly narrow.
func TestExactGroupFloatIntervalsCoverTruth(t *testing.T) {
	srv := testServer(t)
	q := QueryRequest{SQL: "SELECT region, SUM(amount), AVG(amount) FROM T GROUP BY region"}
	_, approxBody := post(t, srv, "/v1/query", q)
	_, exactBody := post(t, srv, "/v1/exact", q)
	var approx, exact QueryResponse
	json.Unmarshal(approxBody, &approx)
	json.Unmarshal(exactBody, &exact)
	truth := map[string][]float64{}
	for _, g := range exact.Groups {
		truth[g.Key[0]] = g.Values
	}
	checked := 0
	for _, g := range approx.Groups {
		if !g.Exact {
			continue
		}
		for j, ci := range g.CI {
			checked++
			if want := truth[g.Key[0]][j]; want < ci[0] || want > ci[1] || ci[1]-ci[0] > 1e-9*want {
				t.Errorf("exact group %s output %d: truth %v, interval %v", g.Key[0], j, want, ci)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no exact groups on skewed data")
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		path string
		body string
	}{
		{"/v1/query", `{`},
		{"/v1/query", `{"sql": ""}`},
		{"/v1/query", `{"sql": "SELEC nonsense"}`},
		{"/v1/query", `{"sql": "SELECT COUNT(*) FROM T WHERE missing = 1"}`},
		{"/v1/exact", `{"sql": "not sql"}`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

func TestMetaEndpoints(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/columns")
	if err != nil {
		t.Fatal(err)
	}
	var cols struct {
		Database string   `json:"database"`
		Rows     int      `json:"rows"`
		Columns  []string `json:"columns"`
	}
	json.NewDecoder(resp.Body).Decode(&cols)
	resp.Body.Close()
	if cols.Database != "salesdb" || cols.Rows != 20000 || len(cols.Columns) != 2 {
		t.Errorf("columns response: %+v", cols)
	}

	resp, err = http.Get(srv.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	var strat struct {
		Strategies []string `json:"strategies"`
		Active     string   `json:"active"`
	}
	json.NewDecoder(resp.Body).Decode(&strat)
	resp.Body.Close()
	if strat.Active != "smallgroup" || len(strat.Strategies) != 1 {
		t.Errorf("strategies response: %+v", strat)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /query status %d", resp.StatusCode)
	}
}

func TestQueryOrderByAndLimit(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv, "/v1/query", QueryRequest{
		SQL: "SELECT region, COUNT(*) AS cnt FROM T GROUP BY region ORDER BY cnt DESC LIMIT 3",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Groups) != 3 {
		t.Fatalf("groups = %d, want 3 (LIMIT)", len(qr.Groups))
	}
	for i := 1; i < len(qr.Groups); i++ {
		if qr.Groups[i].Values[0] > qr.Groups[i-1].Values[0] {
			t.Errorf("not sorted descending: %v then %v", qr.Groups[i-1].Values[0], qr.Groups[i].Values[0])
		}
	}
}
