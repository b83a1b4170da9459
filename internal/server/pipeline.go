package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/obs"
	"dynsample/internal/sqlparse"
	"dynsample/internal/stats"
)

// This file is the one request pipeline every tier serves /v1/query and
// /v1/exact through: decode → compile → execute (back end) → present. A
// single-node server runs it over core.System (see local in server.go); the
// cluster coordinator runs the same pipeline over its fan-out. Everything
// tier-specific travels in the Outcome or in a typed error, so the pipeline
// never asks which back end it is serving.

// Backend executes compiled queries for the pipeline.
type Backend interface {
	// Schema returns the database requests compile against and the row count
	// GET /v1/columns reports.
	Schema() (db *engine.Database, rows int64, err error)
	// Query answers q approximately under req's bounds; Exact scans the
	// base data. ctx carries the request deadline and the pipeline trace.
	Query(ctx context.Context, q *engine.Query, req *QueryRequest) (*Outcome, error)
	Exact(ctx context.Context, q *engine.Query, req *QueryRequest) (*Outcome, error)
	// RawWire reports whether answers may leave as raw merge-ready
	// accumulators ("raw": true) instead of presented groups.
	RawWire() bool
}

// Outcome is one executed query as a back end hands it to the presenter.
type Outcome struct {
	Result *engine.Result
	// Intervals holds one confidence interval per group and aggregate. Nil on
	// exact answers, whose groups carry no "ci".
	Intervals  map[engine.GroupKey][]stats.Interval
	RowsRead   int64
	Elapsed    time.Duration
	Generation uint64
	Degraded   bool
	// Plan, Predicted and Achieved are set on bounded queries (and Achieved on
	// every partial answer).
	Plan                string
	Predicted, Achieved *float64
	// Partial and MissingShards are set by a fan-out back end that answered
	// from a strict subset of its shards.
	Partial       bool
	MissingShards []int
	// Rewrite, when known, is rendered into explain responses.
	Rewrite *core.RewritePlan
}

// RelayError carries an error envelope some other tier already wrote — a
// shard's verdict on the request itself — for verbatim relay to the client.
type RelayError struct {
	Status int
	Body   []byte
	Err    error
}

func (e *RelayError) Error() string { return e.Err.Error() }
func (e *RelayError) Unwrap() error { return e.Err }

// UnavailableError is a retryable refusal: the pipeline answers 503 with a
// jittered Retry-After (After, else 1s) mirrored in the envelope's
// retry_after_ms.
type UnavailableError struct {
	Code  string
	After time.Duration
	Err   error
}

func (e *UnavailableError) Error() string { return e.Err.Error() }
func (e *UnavailableError) Unwrap() error { return e.Err }

// badRequestError marks an error as the client's: 400 bad_request.
type badRequestError struct{ error }

// unimplementedError marks a route whose feature this server was started
// without: 501 unimplemented.
type unimplementedError struct{ error }

// maxBody bounds the request body of every route registered with Handle. An
// ingest batch larger than this should be split client-side (the WAL caps
// records at 16 MiB anyway).
const maxBody = 8 << 20

func badRequestf(format string, args ...any) error {
	return badRequestError{fmt.Errorf(format, args...)}
}

// Pipeline serves the routes every tier shares — POST /v1/query, POST
// /v1/exact, GET /v1/columns, GET /metrics, GET /debug/slowlog and the
// envelope-shaped 404 — over one Backend. Tiers add their own routes with
// Handle. It reads Strategy (the metrics and trace label), DefaultTimeout,
// MaxInflight, SlowLogSize and ShardID from the Config.
type Pipeline struct {
	backend  Backend
	cfg      Config
	mux      *http.ServeMux
	inflight chan struct{} // admission semaphore; nil = unlimited
	slowlog  *obs.SlowLog
}

// NewPipeline builds the shared routes over b.
func NewPipeline(b Backend, cfg Config) *Pipeline {
	p := &Pipeline{backend: b, cfg: cfg, mux: http.NewServeMux(), slowlog: obs.NewSlowLog(cfg.SlowLogSize)}
	if cfg.MaxInflight > 0 {
		p.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	p.mux.HandleFunc("POST /v1/query", p.serve(false))
	p.mux.HandleFunc("POST /v1/exact", p.serve(true))
	p.Handle("GET /v1/columns", p.columns)
	p.Handle("GET /debug/slowlog", p.slowest)
	p.mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	// Catch-all so unknown paths get the error envelope, not a plain-text
	// 404.
	p.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("no route for %s %s", r.Method, r.URL.Path))
	})
	return p
}

// Handle registers a route answering with fn's value as JSON, or with the
// envelope for its error: the pipeline does all the writing. The body fn
// reads is capped at maxBody.
func (p *Pipeline) Handle(pattern string, fn func(*http.Request) (any, error)) {
	p.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		v, err := fn(r)
		if err != nil {
			p.fail(w, r, err)
			return
		}
		writeJSON(w, v)
	})
}

// Handler returns the registered routes wrapped in the request-ID and
// panic-recovery middleware.
func (p *Pipeline) Handler() http.Handler { return requestID(recoverPanics(p.mux)) }

// requestID accepts the client's X-Request-ID (or generates one), echoes it
// on the response, and threads it through the context so traces, slow-log
// entries and panic logs can correlate with client-side logs.
func requestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		h.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
	})
}

// sanitizeRequestID bounds a client-supplied identifier: printable ASCII
// only, at most 128 bytes, so a hostile header cannot inject into logs or
// response headers.
func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		id = id[:128]
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x20 || id[i] > 0x7e {
			return ""
		}
	}
	return id
}

// recoverPanics converts a panic on the request goroutine into a 500 so one
// poisoned request cannot take down the process; the panic is counted and
// logged with the request ID. If the handler had already written a response
// prefix the error body is appended to it — the client sees a malformed
// payload, which is the best that can be done post-commit.
func recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				obsPanics.Inc()
				log.Printf("server: recovered panic (request_id=%s %s %s): %v",
					obs.RequestIDFrom(r.Context()), r.Method, r.URL.Path, v)
				writeError(w, http.StatusInternalServerError, CodeInternal,
					fmt.Errorf("internal error: recovered panic: %v", v))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// admit applies the MaxInflight admission semaphore: requests beyond the cap
// are shed immediately with 503 + Retry-After (load shedding beats unbounded
// queueing — queued requests would miss their deadlines anyway and drag down
// admitted ones). Admitted requests are counted by the in-flight gauge.
func (p *Pipeline) admit(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.inflight != nil {
			select {
			case p.inflight <- struct{}{}:
				defer func() { <-p.inflight }()
			default:
				obsShed.Inc()
				obsQueries.With(endpoint, p.cfg.Strategy, "shed").Inc()
				p.fail(w, r, &UnavailableError{Code: CodeOverloaded,
					Err: fmt.Errorf("server at max in-flight queries (%d)", p.cfg.MaxInflight)})
				return
			}
		}
		obsInflight.Add(1)
		defer obsInflight.Add(-1)
		h(w, r)
	}
}

// serve is the query path, tracked from first byte to response: decode →
// compile → execute on the back end → present (or raw wire) → encode.
func (p *Pipeline) serve(exact bool) http.HandlerFunc {
	endpoint, strategy, exec := "query", p.cfg.Strategy, p.backend.Query
	if exact {
		endpoint, strategy, exec = "exact", "exact", p.backend.Exact
	}
	return p.admit(endpoint, func(w http.ResponseWriter, r *http.Request) {
		faults.Fire(r.Context(), faults.PointHandler, 0)
		rt := &reqTrack{
			p:        p,
			endpoint: endpoint,
			start:    time.Now(),
			trace:    obs.NewTrace(obs.RequestIDFrom(r.Context()), ""),
		}
		rt.trace.SetStrategy(strategy)
		compiled, req, err := p.compile(rt.trace, r, exact)
		if err != nil {
			rt.finish(p.fail(w, r, err), 0)
			return
		}
		// The execution context is the request's own (cancelled when the
		// client disconnects) bounded by timeout_ms if given, else by the
		// default; in-flight shard scans stop at the next shard boundary.
		ctx := obs.WithTrace(r.Context(), rt.trace)
		timeout := p.cfg.DefaultTimeout
		if req.TimeoutMS != nil {
			timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		out, err := exec(ctx, compiled.Query, req)
		if err != nil {
			rt.finish(p.fail(w, r, err), 0)
			return
		}
		status := "ok"
		if out.Partial {
			status = "partial"
		}
		rt.trace.SetRowsRead(out.RowsRead)
		if req.Raw {
			rt.finish(status, out.RowsRead)
			p.writeRaw(w, out)
			return
		}
		endStage := rt.trace.StartStage("present")
		resp := present(compiled, out)
		endStage()
		trace := rt.finish(status, out.RowsRead)
		if req.Explain {
			if out.Rewrite != nil {
				resp.Rewrite = out.Rewrite.SQL()
			}
			resp.Trace = &trace
		}
		writeJSON(w, resp)
	})
}

// compile decodes and validates one request body, then parses and compiles
// its SQL against the back end's schema. Every failure here is the client's
// (400) except a back end that has no schema yet.
func (p *Pipeline) compile(trace *obs.Trace, r *http.Request, exact bool) (*sqlparse.Compiled, *QueryRequest, error) {
	defer trace.StartStage("parse")()
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, nil, err
	}
	trace.SetSQL(req.SQL)
	switch {
	case req.TimeoutMS != nil && *req.TimeoutMS <= 0:
		return nil, nil, badRequestf("invalid timeout_ms %d: must be > 0", *req.TimeoutMS)
	case req.ErrorBound < 0 || req.ErrorBound >= 1:
		return nil, nil, badRequestf("invalid error_bound %g: must be in (0, 1)", req.ErrorBound)
	case req.TimeBoundMS < 0:
		return nil, nil, badRequestf("invalid time_bound_ms %d: must be > 0", req.TimeBoundMS)
	case req.Confidence < 0 || req.Confidence >= 1:
		return nil, nil, badRequestf("invalid confidence %g: must be in (0, 1)", req.Confidence)
	case req.Confidence != 0 && req.ErrorBound == 0 && req.TimeBoundMS == 0:
		return nil, nil, badRequestf("confidence requires error_bound or time_bound_ms")
	case exact && (req.ErrorBound != 0 || req.TimeBoundMS != 0):
		return nil, nil, badRequestf("error_bound/time_bound_ms/confidence apply to /v1/query only; /v1/exact always scans the base table")
	case req.Raw && !p.backend.RawWire():
		return nil, nil, badRequestf("raw responses are shard-internal; this endpoint returns presented groups")
	case strings.TrimSpace(req.SQL) == "":
		return nil, nil, badRequestf("empty sql")
	}
	stmt, err := sqlparse.Parse(strings.TrimSuffix(strings.TrimSpace(req.SQL), ";"))
	if err != nil {
		return nil, nil, badRequestError{err}
	}
	db, _, err := p.backend.Schema()
	if err != nil {
		return nil, nil, err
	}
	compiled, err := sqlparse.Compile(stmt, db)
	if err != nil {
		return nil, nil, badRequestError{err}
	}
	return compiled, &req, nil
}

// decodeBody decodes a request body into v strictly: a field v does not
// declare, or anything but whitespace after the object, is the client's
// error (400), so a misspelled option fails loudly instead of falling back
// to its default.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequestf("bad request body: data after the JSON object")
	}
	return nil
}

// present renders an outcome as the client response: HAVING / ORDER BY /
// LIMIT applied, AVG recombined from its merged (sum, count) pair, one
// interval per value unless the answer is exact.
func present(c *sqlparse.Compiled, out *Outcome) QueryResponse {
	resp := QueryResponse{
		Columns:       outputNames(c),
		RowsRead:      out.RowsRead,
		ElapsedUS:     out.Elapsed.Microseconds(),
		Generation:    out.Generation,
		Degraded:      out.Degraded,
		Plan:          out.Plan,
		Predicted:     out.Predicted,
		Achieved:      out.Achieved,
		Partial:       out.Partial,
		MissingShards: out.MissingShards,
	}
	for _, g := range c.Present(out.Result) {
		gj := GroupJSON{Exact: g.Exact}
		for _, v := range g.Key {
			if v.T == engine.String {
				gj.Key = append(gj.Key, v.S)
			} else {
				gj.Key = append(gj.Key, v.String())
			}
		}
		ivs := out.Intervals[engine.EncodeKey(g.Key)]
		for _, o := range c.Outputs {
			var v float64
			agg := -1 // the accumulator whose interval applies; a recombined AVG has none
			switch o.Kind {
			case sqlparse.OutAgg:
				v, agg = g.Vals[o.AggIndex], o.AggIndex
			case sqlparse.OutAvg:
				if g.Vals[o.DenIndex] != 0 {
					v = g.Vals[o.NumIndex] / g.Vals[o.DenIndex]
				}
			default: // group-by columns travel in Key
				continue
			}
			gj.Values = append(gj.Values, v)
			if out.Intervals == nil {
				continue
			}
			ci := [2]float64{v, v}
			if agg >= 0 && agg < len(ivs) {
				ci = [2]float64{ivs[agg].Lo, ivs[agg].Hi}
			} else if o.Kind == sqlparse.OutAvg && g.Exact && o.NumIndex < len(ivs) && g.Vals[o.DenIndex] != 0 {
				// An exact group's count is exact, so its AVG carries the
				// SUM's float-rounding interval over that count.
				den := g.Vals[o.DenIndex]
				ci = [2]float64{ivs[o.NumIndex].Lo / den, ivs[o.NumIndex].Hi / den}
			}
			gj.CI = append(gj.CI, ci)
		}
		resp.Groups = append(resp.Groups, gj)
	}
	return resp
}

func outputNames(c *sqlparse.Compiled) []string {
	var names []string
	for _, o := range c.Outputs {
		names = append(names, o.Name)
	}
	return names
}

// columns implements GET /v1/columns. Types let ingest clients (aqpcli
// ingest) encode CSV cells correctly without guessing whether "123" is a
// string or a number.
func (p *Pipeline) columns(*http.Request) (any, error) {
	db, rows, err := p.backend.Schema()
	if err != nil {
		return nil, err
	}
	types := map[string]string{}
	for _, name := range db.Columns() {
		if t, err := db.ColumnType(name); err == nil {
			types[name] = t.String()
		}
	}
	return map[string]any{"database": db.Name, "rows": rows, "columns": db.Columns(), "types": types}, nil
}

// SlowLogResponse is the body of GET /debug/slowlog.
type SlowLogResponse struct {
	// Capacity is how many entries the log retains.
	Capacity int `json:"capacity"`
	// Entries are the slowest queries seen so far, slowest first, each with
	// its full pipeline trace.
	Entries []obs.SlowLogEntry `json:"entries"`
}

func (p *Pipeline) slowest(*http.Request) (any, error) {
	entries := p.slowlog.Slowest()
	if entries == nil {
		entries = []obs.SlowLogEntry{}
	}
	return SlowLogResponse{Capacity: p.slowlog.Size(), Entries: entries}, nil
}

// reqTrack carries the observability record of one /v1/query or /v1/exact request
// from first byte to response: the pipeline trace, which serve attaches to
// the execution context so every layer below records into it.
type reqTrack struct {
	p        *Pipeline
	endpoint string
	start    time.Time
	trace    *obs.Trace
}

// finish closes the trace with the terminal status, records the request's
// metrics, offers the query to the slow log, and returns the completed
// trace snapshot for an explain response. Call exactly once per request.
func (rt *reqTrack) finish(status string, rowsRead int64) obs.TraceData {
	data := rt.trace.Finish(status)
	obsQueries.With(rt.endpoint, rt.p.cfg.Strategy, status).Inc()
	obsLatency.With(rt.endpoint).Observe(time.Since(rt.start).Seconds())
	if rowsRead > 0 {
		obsRowsScanned.With(rt.endpoint).Add(uint64(rowsRead))
	}
	if status == "timeout" {
		obsTimeouts.Inc()
	}
	if data.SQL != "" { // never log requests that failed before decoding
		rt.p.slowlog.Observe(obs.SlowLogEntry{
			Time:      rt.start,
			RequestID: data.RequestID,
			SQL:       data.SQL,
			Status:    status,
			Micros:    data.TotalMicros,
			Trace:     data,
		})
	}
	return data
}

// fail is the one mapping from an error to the JSON envelope: 400 for the
// client's own mistakes, a relayed envelope verbatim, 503 + Retry-After for
// a retryable refusal, 422 with the best achievable figures for bounds no
// plan can satisfy, 501 for a feature the server runs without, 409 for a
// rebuild requested while one runs, 504 for a missed deadline, nothing at
// all for a vanished client (the connection is gone; any body would be
// discarded), 500 otherwise. It returns the terminal status label for the request's metrics.
func (p *Pipeline) fail(w http.ResponseWriter, r *http.Request, err error) (label string) {
	status, label := http.StatusInternalServerError, "error"
	detail := ErrorDetail{Code: CodeInternal, Message: err.Error()}
	var (
		bad     badRequestError
		relay   *RelayError
		unavail *UnavailableError
		unsat   *core.UnsatisfiableBoundsError
		unimpl  unimplementedError
	)
	switch {
	case errors.As(err, &bad):
		status, label, detail.Code = http.StatusBadRequest, "bad_request", CodeBadRequest
	case errors.As(err, &relay):
		status, label = relay.Status, "fatal"
		if json.Valid(relay.Body) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(relay.Body)
			return label
		}
	case errors.As(err, &unavail):
		secs := retryAfterSecs(unavail.After)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		status, label = http.StatusServiceUnavailable, "unavailable"
		detail.Code, detail.RetryAfterMS = unavail.Code, int64(secs)*1000
	case errors.As(err, &unsat):
		bestMS := int64((unsat.BestLatency + time.Millisecond - 1) / time.Millisecond)
		status, label, detail.Code = http.StatusUnprocessableEntity, "unsatisfiable", CodeBoundUnsatisfiable
		detail.BestErrorBound, detail.BestTimeBoundMS = &unsat.BestError, &bestMS
	case errors.As(err, &unimpl):
		status, label, detail.Code = http.StatusNotImplemented, "unimplemented", CodeUnimplemented
	case errors.Is(err, ErrRebuildInProgress):
		status, label, detail.Code = http.StatusConflict, "conflict", CodeRebuildInProgress
	case errors.Is(err, context.DeadlineExceeded):
		status, label, detail.Code = http.StatusGatewayTimeout, "timeout", CodeDeadlineExceeded
		detail.Message = "query deadline exceeded: " + detail.Message
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		return "canceled"
	}
	writeEnvelope(w, status, detail)
	return label
}

// retryAfterSecs converts a refusal's Retry-After hint (1s when it has
// none) to whole seconds and adds jitter in [secs, 2·secs]. Without jitter
// every client rejected in the same overload spike retries in the same
// second and re-creates the spike; the spread halves the synchronized retry
// rate at the cost of at most doubling one client's wait. The envelope is deliberately not parallel.Jitter's
// [d/2, d]: the hint is a floor clients are told to wait at least, so
// jitter only ever lengthens it.
func retryAfterSecs(after time.Duration) int {
	secs := int(after.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs + rand.Intn(secs+1)
}

// writeJSON encodes v fully before touching the ResponseWriter, so an encode
// failure yields a clean 500 instead of a half-written 200 body with error
// text appended.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// writeError emits the error envelope with the given status and code.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeEnvelope(w, status, ErrorDetail{Code: code, Message: err.Error()})
}

func writeEnvelope(w http.ResponseWriter, status int, detail ErrorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: detail})
}
