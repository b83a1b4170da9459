package server

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/faults"
)

const testSQL = "SELECT region, COUNT(*) FROM T GROUP BY region"

// ms builds the pointer form timeout_ms takes in QueryRequest literals.
func ms(v int64) *int64 { return &v }

func robustServer(t *testing.T, sgCfg core.SmallGroupConfig, cfg Config) *httptest.Server {
	t.Helper()
	sys := testSystem(t, sgCfg)
	srv := httptest.NewServer(New(sys, cfg).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func decodeErr(t *testing.T, body []byte) ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body %q is not JSON: %v", body, err)
	}
	return er
}

func TestMalformedBodyRejected(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestBadRequestErrorPaths(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name string
		req  QueryRequest
		want string // substring of the error message
	}{
		{"empty sql", QueryRequest{SQL: "   "}, "empty sql"},
		{"unknown column", QueryRequest{SQL: "SELECT nope, COUNT(*) FROM T GROUP BY nope"}, "nope"},
		{"negative timeout", QueryRequest{SQL: testSQL, TimeoutMS: ms(-5)}, "timeout_ms"},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/query", "/v1/exact"} {
			resp, body := post(t, srv, path, tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400 (%s)", tc.name, path, resp.StatusCode, body)
			}
			if er := decodeErr(t, body); !strings.Contains(er.Error.Message, tc.want) {
				t.Errorf("%s %s: error %q does not mention %q", tc.name, path, er.Error.Message, tc.want)
			}
		}
	}
}

// TestDeadlineExceededReturns504: a fault-injected slow shard makes the scan
// stall far beyond the request's timeout_ms; the server must answer 504 with
// the structured deadline_exceeded code long before the stalled scan would
// have finished.
func TestDeadlineExceededReturns504(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv := robustServer(t, core.SmallGroupConfig{Workers: 4}, Config{})
	const stall = 30 * time.Second
	faults.Set(faults.PointScanShard, faults.SleepHook(stall))

	start := time.Now()
	resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL, TimeoutMS: ms(50)})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if er := decodeErr(t, body); er.Error.Code != CodeDeadlineExceeded {
		t.Errorf("code %q, want %q", er.Error.Code, CodeDeadlineExceeded)
	}
	if elapsed >= stall {
		t.Fatalf("504 took %v — deadline did not abort the stalled scan", elapsed)
	}

	// Same stalled backend on /exact: the base-table scan observes the
	// deadline at shard boundaries too.
	resp, body = post(t, srv, "/v1/exact", QueryRequest{SQL: testSQL, TimeoutMS: ms(50)})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("/exact status %d, want 504 (%s)", resp.StatusCode, body)
	}
}

// TestServerDefaultTimeout: Config.DefaultTimeout applies when the request
// carries no timeout_ms.
func TestServerDefaultTimeout(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv := robustServer(t, core.SmallGroupConfig{Workers: 4}, Config{DefaultTimeout: 50 * time.Millisecond})
	faults.Set(faults.PointScanShard, faults.SleepHook(30*time.Second))
	start := time.Now()
	resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("default timeout took %v to fire", elapsed)
	}
}

// TestOverloadShed503: with -max-inflight 1 and one query stuck in its scan,
// a second concurrent query is shed immediately with 503 + Retry-After; once
// the first completes, capacity frees up again.
func TestOverloadShed503(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv := robustServer(t, core.SmallGroupConfig{Workers: 4}, Config{MaxInflight: 1})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	faults.Set(faults.PointScanShard, func(ctx context.Context, i int) {
		once.Do(func() { close(entered) })
		faults.BlockHook(release)(ctx, i)
	})

	firstDone := make(chan int, 1)
	go func() {
		resp, _ := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL})
		firstDone <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never reached its scan")
	}

	resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second query: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	// The base hint is 1s; jitter spreads it over [1, 2] (see retryAfterSecs).
	if ra := resp.Header.Get("Retry-After"); ra != "1" && ra != "2" {
		t.Errorf("Retry-After = %q, want \"1\" or \"2\"", ra)
	}
	if er := decodeErr(t, body); er.Error.Code != CodeOverloaded {
		t.Errorf("code %q, want %q", er.Error.Code, CodeOverloaded)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first query: status %d, want 200 after release", code)
	}
	// Capacity is back: a fresh query succeeds.
	faults.Reset()
	if resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release query: status %d (%s)", resp.StatusCode, body)
	}
}

// TestHandlerPanicRecoveredTo500: a panic on the request goroutine becomes a
// 500 and the process keeps serving.
func TestHandlerPanicRecoveredTo500(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv := testServer(t)
	faults.Set(faults.PointHandler, faults.PanicHook("handler exploded"))
	resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	if er := decodeErr(t, body); er.Error.Code != CodeInternal || !strings.Contains(er.Error.Message, "handler exploded") {
		t.Errorf("error = %+v, want internal code with panic detail", er)
	}
	// The process survived: the next request succeeds.
	faults.Reset()
	if resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic query: status %d (%s)", resp.StatusCode, body)
	}
}

// TestQueryDegradesUnderDeadline: a one-row-per-second throughput estimate
// makes the full rewrite look unaffordable inside the (generous) deadline, so
// the server answers from the overall sample and flags it.
func TestQueryDegradesUnderDeadline(t *testing.T) {
	srv := robustServer(t, core.SmallGroupConfig{Workers: 4, ScanRowsPerSecond: 1}, Config{})

	// Without a deadline: full plan, not degraded.
	resp, body := post(t, srv, "/v1/query", QueryRequest{SQL: testSQL, Explain: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var full QueryResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Degraded {
		t.Fatal("degraded without a deadline")
	}
	if !strings.Contains(full.Rewrite, "UNION ALL") {
		t.Fatalf("full rewrite has a single step:\n%s", full.Rewrite)
	}

	// With a deadline: overall sample only, degraded flag set, still 200.
	resp, body = post(t, srv, "/v1/query", QueryRequest{SQL: testSQL, Explain: true, TimeoutMS: ms(30000)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var deg QueryResponse
	if err := json.Unmarshal(body, &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Fatal("degraded flag not set")
	}
	if strings.Contains(deg.Rewrite, "UNION ALL") {
		t.Fatalf("degraded rewrite still multi-step:\n%s", deg.Rewrite)
	}
	if len(deg.Groups) == 0 {
		t.Fatal("degraded answer has no groups")
	}
	if deg.RowsRead >= full.RowsRead {
		t.Fatalf("degraded read %d rows, full plan %d", deg.RowsRead, full.RowsRead)
	}
	for _, g := range deg.Groups {
		if g.Exact {
			t.Fatalf("degraded group %v marked exact", g.Key)
		}
	}
}

// TestExactParityWithQuery: /exact reports RowsRead from the engine result
// (the base table size for an unfiltered scan) and measures elapsed around
// engine execution, exactly like /query.
func TestExactParityWithQuery(t *testing.T) {
	srv := testServer(t)
	resp, body := post(t, srv, "/v1/exact", QueryRequest{SQL: testSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowsRead != 20000 {
		t.Errorf("RowsRead = %d, want 20000 (base table scan)", qr.RowsRead)
	}
	if qr.ElapsedUS <= 0 {
		t.Errorf("ElapsedUS = %d, want > 0", qr.ElapsedUS)
	}
}

// TestWriteJSONEncodeFailureIsClean500: an unencodable value must produce a
// pure 500 error body, never a half-written 200 payload.
func TestWriteJSONEncodeFailureIsClean500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"x": math.NaN()}) // NaN is not valid JSON
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if er := decodeErr(t, rec.Body.Bytes()); er.Error.Code != CodeInternal {
		t.Fatalf("body %q is not a structured internal error", rec.Body.String())
	}
}

// TestGracefulDrain: cancelling the serve context (what SIGINT/SIGTERM does
// in aqpd) must let the in-flight request finish with a 200 before Serve
// returns, and refuse new connections afterwards.
func TestGracefulDrain(t *testing.T) {
	t.Cleanup(faults.Reset)
	sys := testSystem(t, core.SmallGroupConfig{Workers: 4})
	srv := &http.Server{Handler: New(sys, Config{}).Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, srv, ln, 30*time.Second) }()

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	faults.Set(faults.PointScanShard, func(ctx context.Context, i int) {
		once.Do(func() { close(entered) })
		faults.BlockHook(release)(ctx, i)
	})

	url := "http://" + ln.Addr().String()
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/query", "application/json",
			strings.NewReader(`{"sql":"`+testSQL+`"}`))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached its scan")
	}

	cancel() // the SIGTERM moment
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200 after drain", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain completed")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}
