package obs

import (
	"context"
	"sync"
	"time"
)

// Stage is one timed phase of the runtime pipeline: parse → select →
// execute → combine → finalize → present. Offsets are relative to the
// trace start so stages reconstruct the query's timeline.
type Stage struct {
	Name         string `json:"name"`
	OffsetMicros int64  `json:"offset_micros"`
	Micros       int64  `json:"micros"`
}

// SampleExec is the execution record of one rewrite step — one sample table
// of the selected set. Together the entries answer "which small-group
// tables answered my query, and what did each cost".
type SampleExec struct {
	// Table is the sample source name (e.g. "sg_s_region", "sg_overall").
	Table string `json:"table"`
	// Rows is the number of rows this step scanned.
	Rows int64 `json:"rows"`
	// Shards is the number of partitioned-scan shards the step was split into.
	Shards int `json:"shards"`
	// Scale is the aggregate scale factor (inverse sampling rate; 1 for
	// small group tables, which are not downsampled).
	Scale  float64 `json:"scale,omitempty"`
	Micros int64   `json:"micros"`
}

// PlannerCandidate is one plan the bounded-query planner considered, with
// its predictions.
type PlannerCandidate struct {
	// Plan names the candidate, e.g. "sg_store_region+sg_overall/0.25".
	Plan string `json:"plan"`
	// Rows is the number of sample (or base, for the exact plan) rows the
	// candidate scans.
	Rows int64 `json:"rows"`
	// PredictedError is the model-predicted mean per-group relative error.
	PredictedError float64 `json:"predicted_error"`
	// PredictedLatencyMicros is the predicted scan latency.
	PredictedLatencyMicros int64 `json:"predicted_latency_micros"`
	// Exact marks the exact-fallback candidate.
	Exact bool `json:"exact,omitempty"`
	// Feasible reports whether the candidate satisfied the requested bounds.
	Feasible bool `json:"feasible"`
}

// PlannerData is the planner's decision record for one bounded query: the
// bounds, every candidate considered, the chosen plan, and predicted vs
// achieved error. It appears in explain traces and /debug/slowlog entries.
type PlannerData struct {
	ErrorBound      float64 `json:"error_bound,omitempty"`
	TimeBoundMicros int64   `json:"time_bound_micros,omitempty"`
	// Confidence is the level the error bound and intervals are stated at.
	Confidence float64 `json:"confidence"`
	// Chosen names the selected candidate.
	Chosen         string  `json:"chosen"`
	PredictedError float64 `json:"predicted_error"`
	AchievedError  float64 `json:"achieved_error"`
	// Candidates lists every plan considered, cheapest first.
	Candidates []PlannerCandidate `json:"candidates,omitempty"`
	// Caveats say when the prediction is unreliable for this query (see
	// docs/ACCURACY.md).
	Caveats []string `json:"caveats,omitempty"`
}

// TraceData is the immutable snapshot of a finished (or in-progress) trace;
// it is what /debug/slowlog stores and what an "explain": true response
// embeds.
type TraceData struct {
	RequestID string `json:"request_id,omitempty"`
	SQL       string `json:"sql,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Start     string `json:"start,omitempty"` // RFC3339Nano
	// Status is the terminal outcome: ok, bad_request, timeout, canceled,
	// internal, shed.
	Status string  `json:"status,omitempty"`
	Stages []Stage `json:"stages"`
	// Samples is the selected sample set with per-step execution cost; empty
	// for exact queries.
	Samples []SampleExec `json:"samples,omitempty"`
	// SamplingFraction is the fraction of base-table rows the selected plan
	// scans (selected sample rows / base rows).
	SamplingFraction float64 `json:"sampling_fraction,omitempty"`
	// Degraded is set when deadline pressure swapped the plan for the
	// overall-sample-only fallback.
	Degraded bool `json:"degraded,omitempty"`
	// Planner is the bounded-query planner's decision record; nil for
	// unbounded queries.
	Planner     *PlannerData `json:"planner,omitempty"`
	RowsRead    int64        `json:"rows_read"`
	TotalMicros int64        `json:"total_micros"`
}

// Trace accumulates the observability record of one query as it moves
// through the pipeline. It is carried by the request context (WithTrace /
// TraceFrom). Every recorder method (StartStage, AddSample, the setters) is
// a no-op on a nil *Trace, so instrumentation sites call
// obs.TraceFrom(ctx).X(...) unguarded and an untraced query pays one context
// lookup and a nil check. Methods are safe for concurrent use — rewrite
// steps fan out across goroutines and may record concurrently.
type Trace struct {
	start time.Time
	mu    sync.Mutex
	data  TraceData
}

// NewTrace starts a trace for one query.
func NewTrace(requestID, sql string) *Trace {
	t := &Trace{start: time.Now()}
	t.data.RequestID = requestID
	t.data.SQL = sql
	t.data.Start = t.start.UTC().Format(time.RFC3339Nano)
	return t
}

// record applies one mutation to the trace under its lock; on a nil trace
// (an untraced query) it does nothing.
func (t *Trace) record(mutate func(*TraceData)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	mutate(&t.data)
	t.mu.Unlock()
}

// StartStage begins a named stage and returns the function that ends it.
// The usual shape is:
//
//	end := tr.StartStage("execute")
//	... work ...
//	end()
func (t *Trace) StartStage(name string) (end func()) {
	if t == nil { // skip the clock reads, not just the record
		return func() {}
	}
	begin := time.Now()
	return func() {
		st := Stage{
			Name:         name,
			OffsetMicros: begin.Sub(t.start).Microseconds(),
			Micros:       time.Since(begin).Microseconds(),
		}
		t.record(func(d *TraceData) { d.Stages = append(d.Stages, st) })
	}
}

// AddSample records one rewrite step's execution.
func (t *Trace) AddSample(s SampleExec) {
	t.record(func(d *TraceData) { d.Samples = append(d.Samples, s) })
}

// SetSQL records the query text once it is known (after request decode).
func (t *Trace) SetSQL(sql string) { t.record(func(d *TraceData) { d.SQL = sql }) }

// SetStrategy records which strategy answered.
func (t *Trace) SetStrategy(name string) { t.record(func(d *TraceData) { d.Strategy = name }) }

// SetSamplingFraction records the selected plan's scan fraction.
func (t *Trace) SetSamplingFraction(f float64) {
	t.record(func(d *TraceData) { d.SamplingFraction = f })
}

// SetDegraded flags the deadline-pressure fallback.
func (t *Trace) SetDegraded(degraded bool) { t.record(func(d *TraceData) { d.Degraded = degraded }) }

// SetPlanner records the bounded-query planner's decision.
func (t *Trace) SetPlanner(p *PlannerData) { t.record(func(d *TraceData) { d.Planner = p }) }

// SetRowsRead records the total rows the query scanned.
func (t *Trace) SetRowsRead(n int64) { t.record(func(d *TraceData) { d.RowsRead = n }) }

// Finish stamps the terminal status and total duration and returns the
// completed snapshot. Call it once, after the last stage ended.
func (t *Trace) Finish(status string) TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.data.Status = status
	t.data.TotalMicros = time.Since(t.start).Microseconds()
	return t.snapshotLocked()
}

// Snapshot returns a copy of the trace so far.
func (t *Trace) Snapshot() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Trace) snapshotLocked() TraceData {
	d := t.data
	d.Stages = append([]Stage(nil), t.data.Stages...)
	d.Samples = append([]SampleExec(nil), t.data.Samples...)
	return d
}

type traceKey struct{}

// WithTrace attaches a trace to a context; the runtime pipeline picks it up
// with TraceFrom at each stage boundary.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil when the query is untraced
// (the no-overhead path).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

type requestIDKey struct{}

// WithRequestID attaches the request identifier to a context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the context's request identifier, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
