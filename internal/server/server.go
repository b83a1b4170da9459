// Package server exposes the AQP middleware over HTTP, matching the
// deployment shape §2 describes for sampling-based systems: "a thin layer of
// middleware which re-writes queries to run against sample tables". Clients
// POST SQL; the server compiles it, answers from the pre-built samples, and
// returns per-group estimates with confidence intervals and exactness flags.
//
// # API surface
//
// The client API lives under /v1 and only there (POST /v1/query, POST
// /v1/exact, GET /v1/columns, GET /v1/strategies, POST /v1/admin/rebuild,
// POST /v1/ingest); probes (GET /healthz, /readyz) and telemetry (GET
// /metrics in Prometheus text format, GET /debug/slowlog) are un-versioned.
// /v1/query and /v1/exact run through one request pipeline (pipeline.go):
// decode → compile → execute on a Backend → present, with one presenter and
// one error mapping. This package's Server is that pipeline over
// core.System; internal/cluster's coordinator is the same pipeline over its
// shard fan-out. Every non-2xx response carries one JSON shape:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": 1000}}
//
// with retry_after_ms present only on load-shedding 503s and the best
// achievable bounds present only on bound_unsatisfiable 422s. Every response
// echoes the request's X-Request-ID header (generating one when absent).
// docs/API.md is the complete field-by-field reference for the surface.
//
// # Bounded queries
//
// POST /v1/query accepts error_bound (maximum mean per-group relative error at
// a confidence level) and/or time_bound_ms (maximum predicted execution
// latency). The core planner enumerates candidate sample plans, predicts
// each one's error and latency, and executes the cheapest plan satisfying
// the bounds; the response reports the chosen plan plus predicted and
// achieved error, and an explain trace lists every candidate. Bounds no plan
// can satisfy fail fast with 422 and the best achievable figures. The
// accuracy semantics of these fields are specified in docs/ACCURACY.md.
//
// # Concurrency
//
// The handler serves any number of query, exact and metadata requests in
// parallel (net/http runs each request on its own goroutine). This is safe
// because shared state is either immutable, swapped atomically, or
// internally synchronised: the base database and every pre-built sample
// table never change once built, all per-request state — the parsed
// statement, the rewrite plan, partial and combined results, response
// buffers, the query trace — lives on the request's own goroutine (rewrite
// steps record into the trace under its lock), and the registered Prepared
// set sits behind an atomic pointer in core.System. A rebuild (POST
// /v1/admin/rebuild, or AutoRebuild on a timer) pre-processes a fresh sample
// generation in the background, swaps it in with core.SwapPrepared, and
// persists it to the sample catalog; queries in flight during the swap
// finish on the generation they started with. Set worker budgets
// (core.WorkerConfigurable) before calling Handler; that mutation is not
// synchronised.
//
// Each request may itself fan out: with a worker budget configured
// (SmallGroupConfig.Workers, or the -workers flag of aqpd), one query's
// rewritten UNION ALL steps execute as parallel partitioned scans. See
// ARCHITECTURE.md for the full concurrency model.
//
// # Deadlines and overload
//
// Every /v1/query and /v1/exact runs under a context derived from the request: a
// client disconnect, the server's Config.DefaultTimeout, or the request's
// own timeout_ms field cancels in-flight shard scans at the next shard
// boundary. A missed deadline returns 504 with a structured error; under
// deadline pressure the small-group strategy may instead degrade to the
// cheap uniform overall sample and flag "degraded": true. When
// Config.MaxInflight is set, excess concurrent queries are shed immediately
// with 503 + Retry-After rather than queueing unboundedly, and a panicking
// handler is recovered to a 500 without killing the process. See
// ARCHITECTURE.md §6.
//
// # Observability
//
// Runtime metrics live in the process-wide obs registry and are served at
// GET /metrics; every query carries an obs.Trace through the pipeline
// (parse → select → execute → combine → finalize → present) which an
// "explain": true request returns inline and GET /debug/slowlog retains for
// the slowest queries. See ARCHITECTURE.md §8.
package server

import (
	"context"
	"log"
	"net/http"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/ingest"
	"dynsample/internal/obs"
)

// DefaultStrategy is the strategy a zero-value Config serves.
const DefaultStrategy = "smallgroup"

// Config tunes the server. The zero value serves the DefaultStrategy with
// permissive robustness defaults: no deadline, no admission limit, a
// DefaultSlowLogSize slow-query log.
type Config struct {
	// Strategy is the registered strategy name /v1/query answers with. Empty
	// means DefaultStrategy.
	Strategy string
	// DefaultTimeout bounds each /v1/query and /v1/exact unless the request
	// carries its own timeout_ms. Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxInflight caps concurrently executing /v1/query + /v1/exact requests;
	// excess requests are shed with 503 and a Retry-After header instead of
	// queueing. Zero means unlimited.
	MaxInflight int
	// SlowLogSize is how many of the slowest queries GET /debug/slowlog
	// retains. Zero means obs.DefaultSlowLogSize.
	SlowLogSize int
	// Rebuild enables zero-downtime sample rebuilds (POST /v1/admin/rebuild and
	// AutoRebuild); the zero value disables them. See RebuildConfig.
	Rebuild RebuildConfig
	// Ingest, when non-nil, enables POST /v1/ingest (live row appends backed by
	// the coordinator's WAL + online sample maintenance) and makes Rebuild go
	// through the coordinator's pin/tail handshake. When Rebuild is also
	// configured, the coordinator's drift trigger is pointed at this server's
	// background rebuild.
	Ingest *ingest.Coordinator
	// Shards > 0 puts the server in cluster shard mode: it serves one
	// partition of the fact table (stripe ShardID of Shards) and additionally
	// exposes GET /shard, the join summary a cluster coordinator fetches to
	// register this shard (see internal/cluster). ShardID must then be in
	// [0, Shards).
	Shards  int
	ShardID int
}

// Server routes HTTP requests to a core.System. Configuration fields are
// read-only after construction; the mutable state — the atomically swapped
// Prepared set inside core.System, the healthState atomics, the slow-query
// log — is synchronised, so one Server safely backs concurrent requests
// even while a rebuild swaps sample generations underneath them.
type Server struct {
	sys      *core.System
	strategy string
	cfg      Config
	pipe     *Pipeline // the request pipeline, with this server as its back end
	health   healthState
	shard    shardSummary // generation-keyed GET /shard cache (shard mode)
}

// New returns a server over sys. The zero Config is valid: it serves the
// DefaultStrategy with no deadline and no admission limit. The system must
// be fully configured before the returned server starts handling requests;
// see the package comment for the concurrency contract.
func New(sys *core.System, cfg Config) *Server {
	if cfg.Strategy == "" {
		cfg.Strategy = DefaultStrategy
	}
	s := &Server{sys: sys, strategy: cfg.Strategy, cfg: cfg}
	s.pipe = NewPipeline(local{s}, cfg)
	s.routes()
	if cfg.Ingest != nil && cfg.Rebuild.Strategy != nil {
		// Drift past the bound means some rare value has outgrown its exact
		// small-group answer; rebuild in the background while ingest and
		// queries continue (the coordinator fires this at most once per
		// rebuild cycle, on its own goroutine).
		cfg.Ingest.SetOnDrift(func(float64) {
			if _, err := s.Rebuild(); err != nil {
				log.Printf("server: drift-triggered rebuild failed: %v", err)
			}
		})
	}
	return s
}

// SlowLog exposes the server's slow-query log (the store behind GET
// /debug/slowlog), so an operator CLI can mount it elsewhere.
func (s *Server) SlowLog() *obs.SlowLog { return s.pipe.slowlog }

// QueryRequest is the body of POST /v1/query and POST /v1/exact. See docs/API.md
// for the full field reference.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Explain additionally returns the rewritten UNION ALL sample query and
	// the full pipeline trace (per-stage timings, the selected sample set
	// with per-table cost, sampling fraction, degradation, and — on bounded
	// queries — the planner's candidate list).
	Explain bool `json:"explain,omitempty"`
	// TimeoutMS, when present, overrides the server's default per-request
	// deadline for this query; it must be positive. A missed deadline
	// returns 504.
	TimeoutMS *int64 `json:"timeout_ms,omitempty"`
	// ErrorBound, when set, asks the planner for the cheapest plan whose
	// predicted mean per-group relative error (at the confidence level) is
	// at most this value, in (0, 1). /v1/query only. When no plan qualifies the
	// request fails with 422 and the best achievable bound in the error
	// body. See docs/ACCURACY.md for what the prediction guarantees.
	ErrorBound float64 `json:"error_bound,omitempty"`
	// TimeBoundMS, when set, bounds the plan's predicted execution latency
	// in milliseconds; the planner picks the most accurate plan predicted to
	// fit (the cheapest satisfying plan when error_bound is also set).
	// /v1/query only. Unlike timeout_ms it shapes the plan rather than
	// cancelling the request.
	TimeBoundMS int64 `json:"time_bound_ms,omitempty"`
	// Confidence is the confidence level error_bound and the returned
	// intervals are stated at, in (0, 1). Zero means the server's configured
	// level (default 0.95). Requires error_bound or time_bound_ms.
	Confidence float64 `json:"confidence,omitempty"`
	// Raw asks for the answer as raw merge-ready accumulators instead of
	// presented groups: one binio frame, sent as application/octet-stream,
	// laid out by encodeRaw (shard.go) and read by DecodeRaw. This is the
	// shard-side wire format of the scatter-gather tier: the coordinator
	// needs every additive accumulator to re-merge shard partials with
	// Result.Merge, which the presented groups do not carry.
	Raw bool `json:"raw,omitempty"`
}

// GroupJSON is one group of an answer.
type GroupJSON struct {
	Key    []string  `json:"key"`
	Values []float64 `json:"values"`
	Exact  bool      `json:"exact"`
	// CI holds [lo, hi] per value; omitted for exact queries.
	CI [][2]float64 `json:"ci,omitempty"`
}

// QueryResponse is the body returned by /v1/query and /v1/exact.
type QueryResponse struct {
	Columns   []string    `json:"columns"`
	Groups    []GroupJSON `json:"groups"`
	RowsRead  int64       `json:"rowsRead,omitempty"`
	ElapsedUS int64       `json:"elapsedMicros"`
	// Generation is the data generation (ingest batches applied) this answer
	// was computed against, so clients can correlate an answer with their
	// own writes.
	Generation uint64 `json:"generation"`
	Rewrite    string `json:"rewrite,omitempty"`
	// Degraded is set when deadline pressure made the strategy fall back to
	// the uniform overall sample instead of its full rewrite.
	Degraded bool `json:"degraded,omitempty"`
	// Plan names the planner-chosen sample plan; set on bounded queries.
	Plan string `json:"plan,omitempty"`
	// Predicted is the planner's predicted mean per-group relative error for
	// the chosen plan; set on bounded queries.
	Predicted *float64 `json:"predicted,omitempty"`
	// Achieved is the realized error estimate, derived from the answer's
	// confidence intervals; set on bounded queries.
	Achieved *float64 `json:"achieved,omitempty"`
	// Partial is set by a cluster coordinator when one or more shards did
	// not contribute to this answer; the estimates cover only the surviving
	// shards and Predicted/Achieved are widened accordingly. Single-process
	// servers never set it.
	Partial bool `json:"partial,omitempty"`
	// MissingShards lists the shard ids that did not contribute when Partial
	// is set.
	MissingShards []int `json:"missing_shards,omitempty"`
	// Trace is the pipeline trace, returned when the request set
	// "explain": true.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// ErrorDetail is the payload of the error envelope: a stable
// machine-readable code, human-readable detail, and — on load shedding —
// the retry hint mirrored from the Retry-After header.
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// BestErrorBound, on bound_unsatisfiable errors, is the smallest
	// error_bound any plan could have satisfied under the request's time
	// bound — the value to retry with.
	BestErrorBound *float64 `json:"best_error_bound,omitempty"`
	// BestTimeBoundMS, on bound_unsatisfiable errors, is the smallest
	// time_bound_ms any plan could have satisfied under the request's error
	// bound.
	BestTimeBoundMS *int64 `json:"best_time_bound_ms,omitempty"`
}

// ErrorResponse is the one JSON shape every non-2xx response carries:
// {"error":{"code":..., "message":..., "retry_after_ms":...}}.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// Error codes used in ErrorDetail.Code.
const (
	CodeBadRequest         = "bad_request"
	CodeNotFound           = "not_found"
	CodeDeadlineExceeded   = "deadline_exceeded"
	CodeOverloaded         = "overloaded"
	CodeInternal           = "internal"
	CodeUnimplemented      = "unimplemented"
	CodeBoundUnsatisfiable = "bound_unsatisfiable"
	// CodeIngestDegraded marks ingest refused because a disk fault put the
	// WAL into read-only degraded mode; the request is retryable (503 +
	// Retry-After) and ingest self-recovers once the disk heals.
	CodeIngestDegraded = "ingest_degraded"
)

// Handler returns the HTTP routes: the shared pipeline's (/v1/query,
// /v1/exact, /v1/columns, /metrics, /debug/slowlog) plus this tier's own,
// behind the request-ID and panic-recovery middleware.
func (s *Server) Handler() http.Handler { return s.pipe.Handler() }

// routes registers the single-node routes beside the pipeline's.
func (s *Server) routes() {
	s.pipe.Handle("GET /v1/strategies", func(*http.Request) (any, error) {
		return map[string]any{"strategies": s.sys.Strategies(), "active": s.strategy}, nil
	})
	s.pipe.Handle("POST /v1/admin/rebuild", s.rebuild)
	s.pipe.Handle("POST /v1/ingest", s.ingest)
	if s.cfg.Shards > 0 {
		s.pipe.Handle("GET /v1/shard", s.shardStats)
	}
	s.pipe.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.pipe.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// local is the pipeline's single-node back end: core.System answering with
// the configured strategy.
type local struct{ s *Server }

func (l local) Schema() (*engine.Database, int64, error) {
	db := l.s.sys.DB()
	return db, int64(db.NumRows()), nil
}

func (l local) RawWire() bool { return true }

func (l local) Query(ctx context.Context, q *engine.Query, req *QueryRequest) (*Outcome, error) {
	s := l.s
	if s.cfg.Shards > 0 {
		faults.Fire(ctx, faults.PointShardRequest, s.cfg.ShardID)
	}
	// Read the generation before executing: the answer is then guaranteed to
	// include at least every batch up to it.
	gen := s.sys.DataGeneration()
	ans, err := s.sys.ApproxBoundsCtx(ctx, s.strategy, q, core.Bounds{
		ErrorBound: req.ErrorBound,
		TimeBound:  time.Duration(req.TimeBoundMS) * time.Millisecond,
		Confidence: req.Confidence,
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Result:     ans.Result,
		Intervals:  ans.Intervals,
		RowsRead:   ans.RowsRead,
		Elapsed:    ans.Elapsed,
		Generation: gen,
		Degraded:   ans.Degraded,
		Rewrite:    ans.Rewrite,
	}
	if d := ans.Plan; d != nil {
		out.Plan, out.Predicted, out.Achieved = d.Chosen.Name, &d.Chosen.PredictedError, &d.AchievedError
	}
	return out, nil
}

// Exact mirrors Query: RowsRead from the engine result and elapsed measured
// around engine execution only, so the two endpoints' numbers are directly
// comparable in speedup tables.
func (l local) Exact(ctx context.Context, q *engine.Query, _ *QueryRequest) (*Outcome, error) {
	defer obs.TraceFrom(ctx).StartStage("execute")()
	gen := l.s.sys.DataGeneration()
	res, elapsed, err := l.s.sys.ExactCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Outcome{Result: res, RowsRead: res.RowsScanned, Elapsed: elapsed, Generation: gen}, nil
}
