package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dynsample/internal/server"
)

// client is the load generator's HTTP side: one keep-alive connection per
// closed-loop client, never more than the machine class has CPUs.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string, conns int) *client {
	return &client{
		url: url,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body to path and returns the status and the fully read response.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// tally counts ops against attempts; a failed op is never dropped.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          error
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

const (
	queryPath  = "/v1/query"
	exactPath  = "/v1/exact"
	ingestPath = "/v1/ingest"
)

var groupMarker = []byte(`{"key":`)

// countGroups counts the groups of a /query or /exact response body without
// decoding it, so checking every measured response costs the load generator
// microseconds rather than a JSON parse that would compete with the server
// for the two cores. It returns -1 for a body that is not a whole response.
func countGroups(body []byte) int {
	if !bytes.HasPrefix(body, []byte(`{"columns":`)) || !bytes.HasSuffix(body, []byte("}\n")) {
		return -1
	}
	return bytes.Count(body, groupMarker)
}

// queryOnce posts one query op and checks the answer: HTTP 200, a whole
// response, and — when want >= 0 — exactly want groups.
func (c *client) queryOnce(path string, op *queryOp, want int) ([]byte, error) {
	reqBody := op.Body
	if path == exactPath {
		reqBody = op.Exact
	}
	status, body, err := c.post(path, reqBody)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %q: HTTP %d: %s", path, op.SQL, status, bytes.TrimSpace(body))
	}
	got := countGroups(body)
	if got < 0 {
		return nil, fmt.Errorf("%s %q: malformed response", path, op.SQL)
	}
	if want >= 0 && got != want {
		return nil, fmt.Errorf("%s %q: %d groups, warm-up had %d", path, op.SQL, got, want)
	}
	return body, nil
}

// decodeAnswer fully decodes a response body.
func decodeAnswer(body []byte) (*server.QueryResponse, error) {
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, err
	}
	return &qr, nil
}

// ingestOnce posts one batch and checks the acknowledgement.
func (c *client) ingestOnce(body []byte) error {
	status, data, err := c.post(ingestPath, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	var ir server.IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		return fmt.Errorf("ingest: bad acknowledgement: %w", err)
	}
	if ir.Rows != batchRows || ir.Duplicate {
		return fmt.Errorf("ingest: acknowledged %d rows (duplicate=%v), sent %d", ir.Rows, ir.Duplicate, batchRows)
	}
	return nil
}

// phaseResult is one measured phase: every op's latency in pass order, and
// the throughput of each pass.
type phaseResult struct {
	latencies []time.Duration
	passRates []float64 // ops per second, one per pass
}

// percentile reports a latency percentile in ms, pooled over every measured op.
func (r *phaseResult) percentile(q float64) float64 {
	return quantile(sortedCopy(durationsMS(r.latencies)), q)
}

// queryPhase replays passes whole passes of the op order from clients
// closed-loop clients: each client takes the next op when its previous one
// completed, and a pass ends when every op of it has been answered. want holds
// the expected group count per distinct query, or nil to check status and
// well-formedness only.
func queryPhase(c *client, ops []queryOp, order []int, want []int, clients, passes int, t *tally) phaseResult {
	var res phaseResult
	for pass := 0; pass < passes; pass++ {
		lat := make([]time.Duration, len(order))
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(order) {
						return
					}
					q := order[i]
					expect := -1
					if want != nil {
						expect = want[q]
					}
					t.attempted.Add(1)
					s := time.Now()
					_, err := c.queryOnce(queryPath, &ops[q], expect)
					lat[i] = time.Since(s)
					if err != nil {
						t.fail(err)
					}
				}
			}()
		}
		wg.Wait()
		res.passRates = append(res.passRates, float64(len(order))/time.Since(start).Seconds())
		res.latencies = append(res.latencies, lat...)
	}
	return res
}

// ingestRange posts batches [from, to) of the phase from clients closed-loop
// clients. It returns how many batches were acknowledged and, per pass of
// chunk consecutive completions, the throughput.
func ingestRange(c *client, bs *batchSource, phase string, from, to, clients, chunk int, t *tally) (acked int, res phaseResult) {
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var ends []time.Time
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				body := bs.body(phase, i)
				t.attempted.Add(1)
				s := time.Now()
				err := c.ingestOnce(body)
				end := time.Now()
				if err != nil {
					t.fail(err)
					continue
				}
				mu.Lock()
				res.latencies = append(res.latencies, end.Sub(s))
				ends = append(ends, end)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	acked = len(ends)
	if chunk > 0 {
		prev := start
		for k := chunk; k <= len(ends); k += chunk {
			// ends is in completion order: appends happen under mu as each
			// op finishes.
			res.passRates = append(res.passRates, float64(chunk)/ends[k-1].Sub(prev).Seconds())
			prev = ends[k-1]
		}
	}
	return acked, res
}

// writerResult is what the open-loop writer of ingest_mixed observed.
type writerResult struct {
	posted    int // batches sent, acknowledged or not
	acked     int
	latencies []time.Duration // from when each batch was due
	late      []time.Duration // how long after its due time each batch was sent
}

// openLoopWriter posts batches [0, limit) of phase "m" on a fixed schedule of
// perSec batches per second until stop is closed. A batch is timed from when
// it was due, so a stall charges every batch queued behind it.
func openLoopWriter(c *client, bs *batchSource, perSec float64, limit int, stop <-chan struct{}, t *tally) writerResult {
	var res writerResult
	interval := time.Duration(float64(time.Second) / perSec)
	start := time.Now()
	for i := 0; i < limit; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return res
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return res
			default:
			}
		}
		body := bs.body("m", i)
		sent := time.Now()
		t.attempted.Add(1)
		res.posted++
		if err := c.ingestOnce(body); err != nil {
			t.fail(err)
			continue
		}
		res.acked++
		res.latencies = append(res.latencies, time.Since(due))
		res.late = append(res.late, sent.Sub(due))
	}
	return res
}
