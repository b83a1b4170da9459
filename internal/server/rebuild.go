package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/ingest"
	"dynsample/internal/obs"
)

// Rebuild instrumentation: rebuilds are rare and expensive, so the metrics
// focus on outcome and cost; aqp_sample_generation lets dashboards confirm
// every replica converged on the same generation after a rollout.
var (
	obsRebuilds = obs.Default().CounterVec("aqp_rebuild_total",
		"Sample rebuilds attempted, by status (ok, error, conflict).", "status")
	obsRebuildDuration = obs.Default().Histogram("aqp_rebuild_duration_seconds",
		"Pre-processing wall time of successful rebuilds.",
		[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300})
	obsGeneration = obs.Default().Gauge("aqp_sample_generation",
		"Sample generation currently serving queries.")
)

// Zero-downtime rebuild and health reporting. The sample family a server
// answers from is not frozen at startup: POST /v1/admin/rebuild (or the
// periodic AutoRebuild loop) re-runs the strategy's pre-processing phase
// against the base data while queries keep being answered from the current
// generation, then swaps the new state in atomically (core.SwapPrepared)
// and persists it as the next catalog generation. In-flight queries finish
// on the generation they started with; no request ever observes a torn or
// missing sample set.

// RebuildConfig enables zero-downtime sample rebuilds.
type RebuildConfig struct {
	// Strategy is re-run against the base database on every rebuild. Nil
	// disables POST /v1/admin/rebuild and AutoRebuild.
	Strategy *core.SmallGroup
	// Catalog, when non-nil, persists each rebuilt generation as a
	// crash-safe snapshot (and is the authority for generation numbers).
	Catalog *catalog.Catalog
	// Workers, when positive, replaces the Strategy's own worker budget on
	// the rebuilt state.
	Workers int
}

// ErrRebuildInProgress is returned when a rebuild is requested while
// another one is still running; rebuilds are single-flight.
var ErrRebuildInProgress = errors.New("server: rebuild already in progress")

// CodeRebuildInProgress is the ErrorDetail.Code for a rejected
// concurrent rebuild.
const CodeRebuildInProgress = "rebuild_in_progress"

// healthState is the mutable serving state surfaced by /healthz and
// /readyz. All fields are atomics: handlers read them while a rebuild
// updates them.
type healthState struct {
	generation  atomic.Uint64
	lastRebuild atomic.Int64 // unix nanos of the last successful build/load; 0 = unknown
	rebuilding  atomic.Bool
	source      atomic.Pointer[string] // "preprocess" | "snapshot" | "rebuild"
	lastErr     atomic.Pointer[string] // last rebuild failure, cleared on success
}

// MarkGeneration records which sample generation the server is serving and
// where it came from ("preprocess" for a fresh build, "snapshot" for a
// catalog restore). The CLIs call it once at startup so /healthz is
// accurate before any rebuild has happened.
func (s *Server) MarkGeneration(gen uint64, source string) {
	s.health.generation.Store(gen)
	s.health.source.Store(&source)
	s.health.lastRebuild.Store(time.Now().UnixNano())
	obsGeneration.Set(float64(gen))
}

// RebuildStatus reports the outcome of one rebuild.
type RebuildStatus struct {
	// Generation is the new serving generation.
	Generation uint64 `json:"generation"`
	// ElapsedMS is the pre-processing wall time in milliseconds.
	ElapsedMS int64 `json:"elapsedMillis"`
	// Persisted is true when the generation was saved to the catalog and,
	// on an ingest-enabled server, read back and verified.
	Persisted bool `json:"persisted"`
	// PersistError carries a catalog save failure. The swap still happened —
	// the server is answering from the new samples — but the generation is
	// not durable. A save that failed its read-back verification keeps the
	// catalog's generation number.
	PersistError string `json:"persistError,omitempty"`
	// WALSegmentsRemoved is how many fully-checkpointed WAL segments the
	// save garbage-collected (ingest-enabled servers only).
	WALSegmentsRemoved int `json:"walSegmentsRemoved,omitempty"`
	// WALGCError carries a non-fatal segment-deletion failure; leftover
	// segments are retried at the next checkpoint or startup.
	WALGCError string `json:"walGCError,omitempty"`
}

// Rebuild runs one zero-downtime rebuild through ingest.Rebuild —
// pre-process, swap in atomically, persist to the catalog when one is
// configured — while queries keep being served from the current generation.
// What stays here is the single-flight latch (a concurrent call fails fast
// with ErrRebuildInProgress) and the health/metrics bookkeeping.
func (s *Server) Rebuild() (RebuildStatus, error) {
	var st RebuildStatus
	rb := s.cfg.Rebuild
	if rb.Strategy == nil {
		return st, errors.New("server: rebuild not configured")
	}
	if !s.health.rebuilding.CompareAndSwap(false, true) {
		obsRebuilds.With("conflict").Inc()
		return st, ErrRebuildInProgress
	}
	defer s.health.rebuilding.Store(false)

	res, err := ingest.Rebuild(s.sys, s.cfg.Ingest, rb.Catalog, rb.Strategy, s.strategy, rb.Workers)
	if err != nil {
		msg := err.Error()
		s.health.lastErr.Store(&msg)
		obsRebuilds.With("error").Inc()
		return st, fmt.Errorf("server: %w", err)
	}
	// Without a durable generation the number still advances, so /healthz
	// and aqp_sample_generation show the swap.
	st = RebuildStatus{
		Generation:         s.health.generation.Load() + 1,
		ElapsedMS:          res.Preprocess.Milliseconds(),
		WALSegmentsRemoved: res.Removed,
	}
	if res.Generation > 0 {
		st.Generation, st.Persisted = res.Generation, res.PersistErr == nil
	}
	if res.PersistErr != nil {
		st.PersistError = res.PersistErr.Error()
	}
	if res.GCErr != nil {
		st.WALGCError = res.GCErr.Error()
	}
	s.MarkGeneration(st.Generation, "rebuild")
	s.health.lastErr.Store(nil)
	obsRebuilds.With("ok").Inc()
	obsRebuildDuration.Observe(res.Preprocess.Seconds())
	return st, nil
}

// AutoRebuild rebuilds every interval until ctx is cancelled — the
// -rebuild-interval flag of aqpd. Failures are reported through /healthz
// (lastRebuildError) and the next tick tries again.
func (s *Server) AutoRebuild(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Rebuild() // errors land in healthState.lastErr
		}
	}
}

// rebuild implements POST /v1/admin/rebuild.
func (s *Server) rebuild(*http.Request) (any, error) {
	if s.cfg.Rebuild.Strategy == nil {
		return nil, unimplementedError{errors.New("rebuild not configured (start the server with a strategy and catalog)")}
	}
	return s.Rebuild()
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status     string `json:"status"` // "ok" or "rebuilding"
	Strategy   string `json:"strategy"`
	Generation uint64 `json:"generation"`
	// Source is where the serving samples came from: "preprocess",
	// "snapshot" or "rebuild".
	Source string `json:"source,omitempty"`
	// LastRebuild is the RFC3339 time the serving generation was built or
	// loaded; empty if unknown.
	LastRebuild string `json:"lastRebuild,omitempty"`
	Rebuilding  bool   `json:"rebuilding"`
	// LastRebuildError is the most recent failed rebuild's error; cleared
	// by the next success.
	LastRebuildError string `json:"lastRebuildError,omitempty"`
	// Ingest reports the ingest coordinator's availability: "ok",
	// "degraded" (disk fault, ingest 503s, self-recovering) or "poisoned"
	// (restart required). Empty when ingestion is not configured.
	Ingest string `json:"ingest,omitempty"`
	// IngestDetail carries the underlying fault when Ingest is not "ok".
	IngestDetail string `json:"ingestDetail,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:     "ok",
		Strategy:   s.strategy,
		Generation: s.health.generation.Load(),
		Rebuilding: s.health.rebuilding.Load(),
	}
	if resp.Rebuilding {
		resp.Status = "rebuilding"
	}
	if src := s.health.source.Load(); src != nil {
		resp.Source = *src
	}
	if ns := s.health.lastRebuild.Load(); ns != 0 {
		resp.LastRebuild = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	if e := s.health.lastErr.Load(); e != nil {
		resp.LastRebuildError = *e
	}
	if ing := s.cfg.Ingest; ing != nil {
		resp.Ingest, resp.IngestDetail = ing.State()
	}
	writeJSON(w, resp)
}

// ReadyResponse is the body of GET /readyz.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	// Ingest mirrors HealthResponse.Ingest. Degraded or poisoned ingest
	// does NOT flip readiness — the server still answers queries — but
	// orchestrators that route writes can read it here.
	Ingest string `json:"ingest,omitempty"`
}

// handleReadyz reports 200 once the active strategy has runtime state to
// answer from, 503 otherwise — the signal a load balancer or orchestrator
// uses to gate traffic. A rebuild does not flip readiness: the old
// generation keeps serving until the swap. Neither does degraded ingest:
// read traffic is exactly what a degraded server can still take.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if _, ok := s.sys.Prepared(s.strategy); !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		b, _ := json.Marshal(ReadyResponse{Ready: false, Reason: fmt.Sprintf("strategy %q has no prepared state", s.strategy)})
		w.Write(append(b, '\n'))
		return
	}
	resp := ReadyResponse{Ready: true}
	if ing := s.cfg.Ingest; ing != nil {
		resp.Ingest, _ = ing.State()
	}
	writeJSON(w, resp)
}
