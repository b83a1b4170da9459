package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

// Fire many concurrent /query and /exact requests at one server and require
// (a) every request succeeds and (b) every client sees the same answer —
// the per-request state isolation the package documents, checked under the
// race detector by `go test -race ./...` (the Makefile `check` target).
func TestConcurrentQueryStress(t *testing.T) {
	srv := testServer(t)
	const clients = 32
	const perClient = 4

	fetch := func(path, sql string) (int, string, error) {
		b, _ := json.Marshal(QueryRequest{SQL: sql})
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}

	queries := []struct{ path, sql string }{
		{"/v1/query", "SELECT region, COUNT(*) FROM T GROUP BY region"},
		{"/v1/query", "SELECT region, SUM(amount) FROM T GROUP BY region"},
		{"/v1/exact", "SELECT region, COUNT(*) FROM T GROUP BY region"},
	}

	// Reference responses, fetched serially first. Groups and values are
	// deterministic; elapsed time and rowsRead are not compared directly.
	type norm struct {
		Columns []string    `json:"columns"`
		Groups  []GroupJSON `json:"groups"`
	}
	normalize := func(body string) string {
		var n norm
		if err := json.Unmarshal([]byte(body), &n); err != nil {
			t.Fatalf("bad response %q: %v", body, err)
		}
		out, _ := json.Marshal(n)
		return string(out)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		code, body, err := fetch(q.path, q.sql)
		if err != nil || code != http.StatusOK {
			t.Fatalf("reference %s: code=%d err=%v", q.sql, code, err)
		}
		want[i] = normalize(body)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				qi := (c + r) % len(queries)
				code, body, err := fetch(queries[qi].path, queries[qi].sql)
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, code, body)
					return
				}
				if got := normalize(body); got != want[qi] {
					t.Errorf("client %d: response diverged for %q:\n got %s\nwant %s",
						c, queries[qi].sql, got, want[qi])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
