package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/obs"
	"dynsample/internal/parallel"
	"dynsample/internal/server"
)

// maxShardBody bounds one shard response body read by the coordinator, so a
// corrupted Content-Length or a hostile shard cannot balloon coordinator
// memory.
const maxShardBody = 64 << 20

// latencyWindowSize is how many recent shard latencies feed the hedging
// percentile.
const latencyWindowSize = 128

// hedgeQuantile is the latency percentile after which a second (hedged)
// attempt is launched against the shard.
const hedgeQuantile = 0.95

// shard is the coordinator's client for one cluster member: its address, its
// circuit breaker, its sliding latency window (for hedging), and the summary
// statistics it registered at join.
type shard struct {
	c     *Coordinator
	id    int
	addr  string // base URL, e.g. http://host:port
	label string // metric label (the id as a string)
	br    *breaker
	lat   *obs.Window

	mu      sync.Mutex
	stats   *core.ShardStats
	lastErr error
}

func (sh *shard) summary() *core.ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

func (sh *shard) setSummary(st *core.ShardStats) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats, sh.lastErr = st, nil
}

func (sh *shard) noteErr(err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lastErr = err
}

// joined reports whether this shard has ever registered a summary.
func (sh *shard) joined() bool { return sh.summary() != nil }

// shardError classifies one failed shard sub-request. status 0 means the
// failure happened below HTTP (dial, timeout, truncated body); otherwise
// body holds the shard's error envelope for verbatim relay.
type shardError struct {
	shard  int
	status int
	body   []byte
	err    error
}

func (e *shardError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("shard %d: HTTP %d: %s", e.shard, e.status, strings.TrimSpace(string(e.body)))
	}
	return fmt.Sprintf("shard %d: %v", e.shard, e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// fatal reports whether the error is a property of the request rather than
// the shard: every shard would answer the same way, so retrying or failing
// over cannot help and the envelope is relayed to the client as-is.
func (e *shardError) fatal() bool {
	switch e.status {
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
		http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
		http.StatusNotImplemented:
		return true
	}
	return false
}

// rawAnswer is one shard's decoded contribution to a fan-out.
type rawAnswer struct {
	shard int
	raw   *server.RawQueryResponse
	res   *engine.Result
}

// fetchSummary GETs the shard's join summary (GET /v1/shard).
func (sh *shard) fetchSummary(ctx context.Context) (*core.ShardStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/v1/shard", nil)
	if err != nil {
		return nil, err
	}
	resp, err := sh.c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &shardError{shard: sh.id, status: resp.StatusCode, body: data,
			err: fmt.Errorf("shard summary: HTTP %d", resp.StatusCode)}
	}
	var st core.ShardStats
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("shard %d: bad summary: %w", sh.id, err)
	}
	return &st, nil
}

// probe is the breaker's half-open check: re-fetch the join summary (and the
// schema, if the coordinator has none yet). A shard that answers GET /shard
// is serving queries again, and probing through the join path means a
// restarted shard re-registers fresh statistics before it re-admits.
func (sh *shard) probe() error {
	ctx, cancel := context.WithTimeout(context.Background(), sh.c.cfg.ProbeTimeout)
	defer cancel()
	st, err := sh.fetchSummary(ctx)
	if err != nil {
		obsProbes.With(sh.label, "error").Inc()
		sh.noteErr(err)
		return err
	}
	sh.setSummary(st)
	if err := sh.c.ensureSchema(ctx, sh); err != nil {
		obsProbes.With(sh.label, "error").Inc()
		sh.noteErr(err)
		return err
	}
	obsProbes.With(sh.label, "ok").Inc()
	return nil
}

// attempt runs one HTTP round trip against the shard with its own deadline,
// decoding the raw accumulator response. Any failure below a 200-with-valid-
// body — dial error, timeout, 5xx, truncated or undecodable body — comes
// back as a *shardError for the retry layer to classify.
func (sh *shard) attempt(ctx context.Context, path string, body []byte, perTry time.Duration) (*rawAnswer, error) {
	if err := faults.FireErr(faults.PointShardTransport, sh.id); err != nil {
		return nil, &shardError{shard: sh.id, err: err}
	}
	actx, cancel := context.WithTimeout(ctx, perTry)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, sh.addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, &shardError{shard: sh.id, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := sh.c.client.Do(req)
	if err != nil {
		return nil, &shardError{shard: sh.id, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody+1))
	if err != nil {
		// Includes the killed-mid-response case: Content-Length promised more
		// bytes than arrived (unexpected EOF).
		return nil, &shardError{shard: sh.id, err: err}
	}
	elapsed := time.Since(start).Seconds()
	sh.lat.Observe(elapsed)
	obsShardLatency.With(sh.label).Observe(elapsed)
	if len(data) > maxShardBody {
		return nil, &shardError{shard: sh.id, err: fmt.Errorf("response exceeds %d bytes", maxShardBody)}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &shardError{shard: sh.id, status: resp.StatusCode, body: data,
			err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	var raw server.RawQueryResponse
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, &shardError{shard: sh.id, err: fmt.Errorf("bad response body: %w", err)}
	}
	res, err := engine.ResultFromWire(raw.Result)
	if err != nil {
		return nil, &shardError{shard: sh.id, err: err}
	}
	return &rawAnswer{shard: sh.id, raw: &raw, res: res}, nil
}

// hedgeDelay is how long to wait on the primary attempt before launching a
// hedge: the shard's recent p95 latency (floored by config so a fast shard
// is not double-queried on noise), or half the per-try budget when the
// window has no history yet. Past the per-try deadline a hedge is pointless.
func (sh *shard) hedgeDelay(perTry time.Duration) time.Duration {
	d := perTry / 2
	if p, ok := sh.lat.Quantile(hedgeQuantile); ok {
		d = time.Duration(p * float64(time.Second))
	}
	if d < sh.c.cfg.HedgeAfterMin {
		d = sh.c.cfg.HedgeAfterMin
	}
	if d > perTry {
		d = perTry
	}
	return d
}

// attemptHedged races up to two attempts against the shard: the primary,
// and — if it has not resolved after hedgeDelay — a duplicate. First success
// wins and cancels the other; both failing returns the last error. Hedging
// targets the same shard (each shard owns its partition exclusively), so it
// defends against transient slowness — a GC pause, a cold cache, one slow
// scan — not against shard death; the retry/breaker layers own that.
func (sh *shard) attemptHedged(ctx context.Context, path string, body []byte, perTry time.Duration) (*rawAnswer, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		ans *rawAnswer
		err error
	}
	ch := make(chan outcome, 2)
	launch := func() {
		go func() {
			ans, err := sh.attempt(hctx, path, body, perTry)
			ch <- outcome{ans, err}
		}()
	}
	launch()
	launched, received := 1, 0
	timer := time.NewTimer(sh.hedgeDelay(perTry))
	defer timer.Stop()
	for {
		select {
		case out := <-ch:
			received++
			if out.err == nil {
				return out.ans, nil
			}
			if received == launched {
				return nil, out.err
			}
			// One attempt failed but the other is still in flight; it may yet
			// succeed.
		case <-timer.C:
			if launched == 1 {
				launched++
				obsShardHedges.With(sh.label).Inc()
				launch()
			}
		}
	}
}

// do is the full per-shard pipeline for one fan-out: bounded retries with
// jittered doubling backoff around hedged attempts. Fatal errors (the
// request itself is bad) propagate immediately; attempt-level failures feed
// the breaker, and a breaker that trips mid-request stops further retries —
// so a dead shard is cut off within a single fan-out.
func (sh *shard) do(ctx context.Context, path string, body []byte, perTry time.Duration) (*rawAnswer, error) {
	backoff := sh.c.cfg.RetryBackoff
	var lastErr error
	for try := 0; try <= sh.c.cfg.Retries; try++ {
		if try > 0 {
			obsShardRetries.With(sh.label).Inc()
			t := time.NewTimer(parallel.Jitter(backoff))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, &shardError{shard: sh.id, err: ctx.Err()}
			case <-t.C:
			}
			backoff *= 2
		}
		ans, err := sh.attemptHedged(ctx, path, body, perTry)
		if err == nil {
			sh.br.OnSuccess()
			obsShardReqs.With(sh.label, "ok").Inc()
			return ans, nil
		}
		lastErr = err
		if se, ok := err.(*shardError); ok && se.fatal() {
			obsShardReqs.With(sh.label, "fatal").Inc()
			return nil, err
		}
		sh.br.OnFailure()
		sh.noteErr(err)
		if ctx.Err() != nil {
			break
		}
		if !sh.br.Allow() {
			// Tripped while we were retrying: stop hammering it.
			break
		}
	}
	obsShardReqs.With(sh.label, "transient").Inc()
	return nil, lastErr
}

// perTryTimeout derives one attempt's deadline: the configured ceiling,
// tightened by what the shard's summary predicts a full-fraction scan costs
// (generous 4x slack — the deadline exists to catch stuck shards, not to
// race healthy ones) and by the request's own time bound and timeout. exact
// queries scan the partition, not the samples, so they budget on Rows.
func (sh *shard) perTryTimeout(req *server.QueryRequest, exact bool) time.Duration {
	d := sh.c.cfg.PerTryTimeout
	tighten := func(t time.Duration) {
		if t > 0 && t < d {
			d = t
		}
	}
	if st := sh.summary(); st != nil && st.ScanRowsPerSecond > 0 {
		rows := st.SampleRows
		if exact {
			rows = st.Rows
		}
		if rows > 0 {
			scan := time.Duration(float64(rows) / st.ScanRowsPerSecond * float64(time.Second))
			tighten(4*scan + 250*time.Millisecond)
		}
	}
	if req.TimeBoundMS > 0 {
		tighten(4*time.Duration(req.TimeBoundMS)*time.Millisecond + 250*time.Millisecond)
	}
	if req.TimeoutMS != nil && *req.TimeoutMS > 0 {
		tighten(time.Duration(*req.TimeoutMS) * time.Millisecond)
	}
	if d < sh.c.cfg.PerTryFloor {
		d = sh.c.cfg.PerTryFloor
	}
	return d
}

// shardBody marshals the request one shard receives: same SQL and bounds,
// raw accumulators instead of presented groups, the per-try deadline as the
// shard-side timeout (so an abandoned attempt also cancels server-side), and
// no explain (traces stay a single-node feature).
func shardBody(req *server.QueryRequest, perTry time.Duration) []byte {
	ms := perTry.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	sreq := server.QueryRequest{
		SQL:         req.SQL,
		TimeoutMS:   &ms,
		ErrorBound:  req.ErrorBound,
		TimeBoundMS: req.TimeBoundMS,
		Confidence:  req.Confidence,
		Raw:         true,
	}
	b, err := json.Marshal(sreq)
	if err != nil {
		// QueryRequest marshals from plain fields; this cannot fail.
		panic(err)
	}
	return b
}

// newShard wires one member: breaker (probing through the join path) and
// latency window.
func newShard(c *Coordinator, id int, addr string) *shard {
	sh := &shard{
		c:     c,
		id:    id,
		addr:  strings.TrimSuffix(addr, "/"),
		label: strconv.Itoa(id),
		lat:   obs.NewWindow(latencyWindowSize),
	}
	sh.br = newBreaker(c.cfg.BreakerThreshold, c.cfg.ProbeBackoff, c.cfg.ProbeBackoffMax,
		sh.probe, func(s breakerState) {
			obsBreakerState.With(sh.label).Set(float64(s))
		})
	return sh
}
