package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/obs"
)

const obsTestSQL = "SELECT region, COUNT(*), SUM(amount) FROM T GROUP BY region"

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// promLine matches one Prometheus sample line: a metric name, optional
// labels, and a float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eEInf]+$`)

// parseProm parses a /metrics body into sampleLine → value, failing the test
// on any line that is not a comment or a well-formed sample.
func parseProm(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

func TestMetricsExposition(t *testing.T) {
	srv := testServer(t)
	// Serve at least one query so the request-path series exist.
	if resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: obsTestSQL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content-type %q is not Prometheus text exposition", ct)
	}
	samples := parseProm(t, body)

	// The acceptance bar: at least 12 distinct series names, each declared
	// with # HELP and # TYPE.
	families := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families[strings.Fields(line)[2]] = true
		}
	}
	if len(families) < 12 {
		t.Errorf("only %d metric families exposed, want >= 12: %v", len(families), families)
	}
	for f := range families {
		if !strings.Contains(string(body), "# HELP "+f+" ") {
			t.Errorf("family %s has no # HELP line", f)
		}
	}

	// The layers the PR instruments must all be visible.
	for _, want := range []string{
		`aqp_queries_total{endpoint="query",strategy="smallgroup",status="ok"}`,
		`aqp_core_answers_total{strategy="smallgroup"}`,
		"aqp_engine_scans_total",
		"aqp_engine_rows_scanned_total",
		`aqp_rows_scanned_total{endpoint="query"}`,
		"aqp_inflight_queries",
		`aqp_query_duration_seconds_count{endpoint="query"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("series %q missing from /metrics", want)
		}
	}
	// Histogram exposition: cumulative buckets ending in +Inf that equal the
	// count.
	inf := `aqp_query_duration_seconds_bucket{endpoint="query",le="+Inf"}`
	if samples[inf] != samples[`aqp_query_duration_seconds_count{endpoint="query"}`] {
		t.Errorf("+Inf bucket %v != count %v", samples[inf],
			samples[`aqp_query_duration_seconds_count{endpoint="query"}`])
	}

	// Counters are monotonic: another query strictly increases the request
	// counter and the rows-scanned totals.
	post(t, srv, "/v1/query", QueryRequest{SQL: obsTestSQL})
	_, body2 := get(t, srv, "/metrics")
	samples2 := parseProm(t, body2)
	for _, c := range []string{
		`aqp_queries_total{endpoint="query",strategy="smallgroup",status="ok"}`,
		"aqp_engine_rows_scanned_total",
		`aqp_core_answers_total{strategy="smallgroup"}`,
	} {
		if samples2[c] <= samples[c] {
			t.Errorf("%s did not increase: %v -> %v", c, samples[c], samples2[c])
		}
	}
	for name, v := range samples {
		if strings.HasSuffix(name, "_total") && samples2[name] < v {
			t.Errorf("counter %s went backwards: %v -> %v", name, v, samples2[name])
		}
	}
}

func TestExplainTraceAccounting(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: obsTestSQL, Explain: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("explain response has no trace")
	}
	tr := qr.Trace

	if tr.RequestID == "" {
		t.Error("trace has no request_id")
	}
	if tr.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("trace request_id %q != response header %q", tr.RequestID, resp.Header.Get("X-Request-ID"))
	}
	if tr.SQL != obsTestSQL || tr.Strategy != "smallgroup" || tr.Status != "ok" {
		t.Errorf("trace identity: sql=%q strategy=%q status=%q", tr.SQL, tr.Strategy, tr.Status)
	}

	// Every pipeline stage must be present exactly once, and the stage
	// durations must tile the request: they cannot exceed the total, and the
	// gaps between them (JSON decode, scheduling) must stay small.
	want := []string{"parse", "select", "execute", "combine", "finalize", "present"}
	got := map[string]int64{}
	var sum int64
	for _, st := range tr.Stages {
		if _, dup := got[st.Name]; dup {
			t.Errorf("duplicate stage %q", st.Name)
		}
		if st.Micros < 0 || st.OffsetMicros < 0 {
			t.Errorf("stage %q has negative timing: %+v", st.Name, st)
		}
		got[st.Name] = st.Micros
		sum += st.Micros
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("stage %q missing from trace (have %v)", name, tr.Stages)
		}
	}
	if sum > tr.TotalMicros {
		t.Errorf("stage sum %dus exceeds total %dus", sum, tr.TotalMicros)
	}

	// The selected sample set must account for every scanned row: per-step
	// rows sum exactly to the answer's RowsRead.
	if len(tr.Samples) == 0 {
		t.Fatal("trace has no selected sample set")
	}
	var sampleRows int64
	for _, s := range tr.Samples {
		if s.Table == "" {
			t.Errorf("sample step with empty table name: %+v", s)
		}
		if s.Shards < 1 {
			t.Errorf("sample %s has %d shards, want >= 1", s.Table, s.Shards)
		}
		sampleRows += s.Rows
	}
	if sampleRows != tr.RowsRead {
		t.Errorf("sample rows sum %d != trace rows_read %d", sampleRows, tr.RowsRead)
	}
	if tr.RowsRead != qr.RowsRead {
		t.Errorf("trace rows_read %d != response rowsRead %d", tr.RowsRead, qr.RowsRead)
	}
	if tr.SamplingFraction <= 0 || tr.SamplingFraction > 1.5 {
		t.Errorf("sampling_fraction %v out of range", tr.SamplingFraction)
	}

	// Without explain the response stays lean.
	_, body = post(t, srv, "/v1/query", QueryRequest{SQL: obsTestSQL})
	var lean QueryResponse
	if err := json.Unmarshal(body, &lean); err != nil {
		t.Fatal(err)
	}
	if lean.Trace != nil || lean.Rewrite != "" {
		t.Error("non-explain response carries trace or rewrite")
	}
}

func TestSlowlogRetainsSlowest(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 5; i++ {
		if resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: obsTestSQL}); resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := get(t, srv, "/debug/slowlog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sl SlowLogResponse
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Capacity != obs.DefaultSlowLogSize {
		t.Errorf("capacity %d, want default %d", sl.Capacity, obs.DefaultSlowLogSize)
	}
	if len(sl.Entries) != 5 {
		t.Fatalf("%d entries, want 5", len(sl.Entries))
	}
	for i, e := range sl.Entries {
		if i > 0 && e.Micros > sl.Entries[i-1].Micros {
			t.Errorf("entries not sorted slowest-first at %d: %d > %d", i, e.Micros, sl.Entries[i-1].Micros)
		}
		if e.SQL != obsTestSQL || e.RequestID == "" || e.Status != "ok" {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
		if len(e.Trace.Stages) == 0 {
			t.Errorf("entry %d has no trace stages", i)
		}
	}
}

func TestSlowlogBounded(t *testing.T) {
	sys := testSystem(t, core.SmallGroupConfig{})
	srv := httptest.NewServer(New(sys, Config{SlowLogSize: 2}).Handler())
	t.Cleanup(srv.Close)
	for i := 0; i < 6; i++ {
		post(t, srv, "/v1/query", QueryRequest{SQL: obsTestSQL})
	}
	_, body := get(t, srv, "/debug/slowlog")
	var sl SlowLogResponse
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Capacity != 2 || len(sl.Entries) != 2 {
		t.Errorf("capacity %d entries %d, want 2 and 2", sl.Capacity, len(sl.Entries))
	}
}

func TestRequestIDHeader(t *testing.T) {
	srv := testServer(t)

	// Client-supplied IDs are echoed verbatim.
	req, _ := http.NewRequest("POST", srv.URL+"/v1/query",
		strings.NewReader(fmt.Sprintf(`{"sql":%q}`, obsTestSQL)))
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Errorf("echoed id %q, want client-abc-123", got)
	}

	// Missing IDs are generated, even on non-query routes.
	resp2, _ := get(t, srv, "/v1/columns")
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID generated for /columns")
	}

	// Oversized IDs are truncated rather than echoed whole.
	req3, _ := http.NewRequest("GET", srv.URL+"/v1/strategies", nil)
	req3.Header.Set("X-Request-ID", strings.Repeat("a", 300))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); got != strings.Repeat("a", 128) {
		t.Errorf("oversized id not truncated to 128: %d bytes", len(got))
	}

	// Control characters (unsendable through net/http, so tested directly)
	// force a fresh generated ID.
	if got := sanitizeRequestID("evil\x01id"); got != "" {
		t.Errorf("sanitizeRequestID kept hostile id %q", got)
	}
}

func TestErrorEnvelope(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad sql", "POST", "/v1/query", `{"sql":"NOT SQL"}`, http.StatusBadRequest, CodeBadRequest},
		{"bad json", "POST", "/v1/query", `{`, http.StatusBadRequest, CodeBadRequest},
		{"unknown path", "GET", "/nope", "", http.StatusNotFound, CodeNotFound},
		{"un-versioned query", "POST", "/query", `{"sql":"SELECT COUNT(*) FROM T"}`, http.StatusNotFound, CodeNotFound},
		{"un-versioned columns", "GET", "/columns", "", http.StatusNotFound, CodeNotFound},
		{"unknown v2 path", "POST", "/v2/query", `{"sql":"x"}`, http.StatusNotFound, CodeNotFound},
		{"wrong method", "GET", "/v1/query", "", http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, body)
			continue
		}
		// The envelope must decode strictly: one "error" object with code and
		// message.
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Errorf("%s: body is not JSON: %s", tc.name, body)
			continue
		}
		if _, ok := raw["error"]; !ok || len(raw) != 1 {
			t.Errorf("%s: body is not the error envelope: %s", tc.name, body)
			continue
		}
		er := decodeErr(t, body)
		if er.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, er.Error.Code, tc.wantCode)
		}
		if er.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}
