// Package core implements the dynamic sample selection architecture of §3
// and its flagship instantiation, small group sampling (§4).
//
// The architecture splits approximate query processing into two phases. In
// the pre-processing phase a Strategy examines the data distribution, selects
// strata, and builds a family of sample tables plus metadata describing them
// (Figure 1). In the runtime phase, each incoming query is compared against
// the metadata to choose the appropriate sample tables, rewritten to run
// against them, and the partial results are combined into a single
// approximate answer with per-group confidence intervals (Figure 2).
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynsample/internal/engine"
	"dynsample/internal/stats"
)

// Strategy builds sample structures for a database during the pre-processing
// phase. Its one implementation is SmallGroup: small group sampling, and the
// baselines — uniform sampling, outlier indexing, congress and workload-
// weighted sampling — each of which is small group sampling with S empty and,
// but for uniform sampling, its own OverallBuilder.
type Strategy interface {
	// Name identifies the strategy in reports and the CLI.
	Name() string
	// Preprocess scans the database and returns the runtime query answerer.
	Preprocess(db *engine.Database) (Prepared, error)
}

// Prepared is a sample family — sample tables plus the metadata that
// describes them — and the one runtime that answers queries from it (§3).
// Every strategy's pre-processing returns one; it has a single
// implementation in this package.
//
// It is safe for concurrent Answer calls: all state built by pre-processing
// (sample tables, metadata) is immutable afterwards, and Answer keeps every
// per-query allocation (plan, partial results, buffers) on its own stack.
// The HTTP server relies on this to serve /query requests in parallel from
// one shared Prepared.
type Prepared interface {
	// Answer runs the query against the family's default plan.
	Answer(q *engine.Query) (*Answer, error)
	// AnswerBounds is the runtime phase under a context and per-request
	// accuracy/latency bounds (see Bounds). Cancellation or a passed deadline
	// aborts in-flight shard scans at the next shard boundary and returns
	// ctx.Err(); a deadline without bounds degrades to a cheaper plan (see
	// Answer.Degraded). Given bounds, it chooses the cheapest plan predicted
	// to satisfy them and reports the decision in Answer.Plan; when none can,
	// the error is an *UnsatisfiableBoundsError carrying the best achievable
	// figures.
	AnswerBounds(ctx context.Context, q *engine.Query, b Bounds) (*Answer, error)
	// PreviewPlans returns every candidate the planner would consider for q
	// under b (cheapest first), with Feasible set per the bounds, plus the
	// prediction caveats for the full plan — without executing anything.
	PreviewPlans(q *engine.Query, b Bounds) ([]PlanCandidate, []string, error)
	// SampleBytes estimates the storage consumed by the sample tables, for
	// the space-overhead experiment (§5.4.2).
	SampleBytes() int64
	// StoredBytes is what the sample family holds in memory: its tables,
	// their joins and the metadata.
	StoredBytes() int64
	// SampleRows returns the total number of rows across all sample tables.
	SampleRows() int64
	// Meta is the metadata catalog: the members of S and their common sets.
	Meta() *Metadata
	// DataGeneration is the ingest data generation baked into the samples:
	// the number of ingest batches whose rows they represent.
	DataGeneration() uint64
	WorkerConfigurable

	workers() int      // the runtime worker budget
	scanRate() float64 // the calibrated scan throughput, rows per second
}

// WorkerConfigurable sets a Prepared's runtime worker budget after
// construction — in particular a family loaded from disk, whose serialised
// form does not store the (machine-local) worker count. Call SetWorkers
// before serving queries; n below 1 leaves the budget as it is.
type WorkerConfigurable interface {
	SetWorkers(n int)
}

// Answer is an approximate query answer: estimated (or exact) per-group
// aggregate values plus confidence intervals.
type Answer struct {
	// Result holds the combined groups. A group has Exact set when the small
	// group table that answers it stores it at a 100% rate.
	Result *engine.Result
	// Intervals maps each group to one confidence interval per aggregate.
	Intervals map[engine.GroupKey][]stats.Interval
	// RowsRead is the number of sample-table rows the plan's steps scanned
	// to produce the answer, every row of each (the runtime cost the paper
	// holds constant across methods).
	RowsRead int64
	// Elapsed is the wall-clock execution time of the runtime phase.
	Elapsed time.Duration
	// Rewrite, when non-nil, is the rewritten query plan that produced the
	// answer, printable as the UNION ALL SQL of §4.2.2.
	Rewrite *RewritePlan
	// Degraded is set when deadline pressure forced the strategy to fall
	// back to a cheaper plan (the uniform overall sample) instead of its
	// full rewrite — dynamic sample selection applied to latency. The
	// estimates are still unbiased but lose the small-group exactness and
	// tightness guarantees.
	Degraded bool
	// Plan, set on bounded queries (AnswerBounds with non-zero Bounds),
	// records the planner's decision: candidates considered, the chosen
	// plan's predicted error and latency, and the achieved error estimate.
	Plan *PlanDecision
}

// Interval returns the confidence interval for a group's aggregate, or a
// zero-width interval if the group is unknown.
func (a *Answer) Interval(key engine.GroupKey, agg int) stats.Interval {
	if ivs, ok := a.Intervals[key]; ok && agg < len(ivs) {
		return ivs[agg]
	}
	return stats.Interval{}
}

// System is the AQP middleware: it owns the base database, runs strategy
// pre-processing, routes runtime queries to a chosen strategy, and can
// always fall back to exact execution.
//
// The registered Prepared set lives behind an atomic pointer to an
// immutable snapshot, so strategies can be hot-swapped (SwapPrepared) while
// queries are being served: a query loads the snapshot once and keeps
// answering from the generation it started with, and registration never
// blocks or tears a concurrent Answer. Writers (AddStrategy, AddPrepared,
// SwapPrepared) copy-on-write under an internal mutex and may be called
// from any goroutine.
// The base database itself is also behind an atomic pointer, together with a
// monotone data generation counter, so the live ingestion path can publish
// grown copy-on-write database versions (SwapData) while queries keep
// scanning the version they pinned.
type System struct {
	data atomic.Pointer[dataState]
	mu   sync.Mutex // serialises writers; readers go through the pointers
	set  atomic.Pointer[preparedSet]
}

// dataState is one immutable published version of the base data: the
// database and the number of ingest batches applied to reach it.
type dataState struct {
	db  *engine.Database
	gen uint64
}

// preparedSet is one immutable generation of the registered strategies.
// Swapping installs a fresh preparedSet; published maps are never mutated.
type preparedSet struct {
	prepared map[string]Prepared
	prepTime map[string]time.Duration
}

// NewSystem returns a middleware instance over db.
func NewSystem(db *engine.Database) *System {
	s := &System{}
	s.data.Store(&dataState{db: db})
	engine.ObserveBytes("base", db.TotalBytes(), db.StoredBytes())
	s.set.Store(&preparedSet{
		prepared: map[string]Prepared{},
		prepTime: map[string]time.Duration{},
	})
	return s
}

// DB returns the current version of the underlying database.
func (s *System) DB() *engine.Database { return s.data.Load().db }

// Data returns the current database version together with its data
// generation, loaded atomically (one published pair, never a torn mix).
func (s *System) Data() (*engine.Database, uint64) {
	d := s.data.Load()
	return d.db, d.gen
}

// DataGeneration returns the number of ingest batches applied to the current
// database version. Query responses report it so clients can detect
// staleness across ingest.
func (s *System) DataGeneration() uint64 { return s.data.Load().gen }

// SwapData atomically publishes a new database version at generation gen.
// In-flight queries that already loaded the previous version finish on it;
// the ingestion layer is the only caller and serialises its swaps.
func (s *System) SwapData(db *engine.Database, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data.Store(&dataState{db: db, gen: gen})
	engine.ObserveBytes("base", db.TotalBytes(), db.StoredBytes())
}

// update installs a copy-on-write modification of the prepared set.
func (s *System) update(mutate func(*preparedSet)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.set.Load()
	next := &preparedSet{
		prepared: make(map[string]Prepared, len(old.prepared)+1),
		prepTime: make(map[string]time.Duration, len(old.prepTime)+1),
	}
	for k, v := range old.prepared {
		next.prepared[k] = v
	}
	for k, v := range old.prepTime {
		next.prepTime[k] = v
	}
	mutate(next)
	s.set.Store(next)
	var logical, stored int64
	for _, p := range next.prepared {
		logical += p.SampleBytes()
		stored += p.StoredBytes()
	}
	engine.ObserveBytes("samples", logical, stored)
}

// AddStrategy runs a strategy's pre-processing phase and registers the
// result under the strategy's name. Pre-processing runs outside the swap:
// queries keep being answered from the current generation until the new
// state is installed atomically. The samples cover every ingest batch the
// current database version holds.
func (s *System) AddStrategy(st Strategy) error {
	start := time.Now()
	db, gen := s.Data()
	p, err := st.Preprocess(db)
	if err != nil {
		return fmt.Errorf("preprocess %s: %w", st.Name(), err)
	}
	p.(*smallGroupPrepared).dataGen = gen
	elapsed := time.Since(start)
	s.update(func(set *preparedSet) {
		set.prepared[st.Name()] = p
		set.prepTime[st.Name()] = elapsed
	})
	return nil
}

// AddPrepared registers already-built runtime state (e.g. loaded from disk
// via LoadSmallGroup) under a name, skipping pre-processing. A family loaded
// from disk is first joined to the system's dimension tables; when they are
// not the ones it was saved over, the error (wrapping ErrOtherDimensions)
// names the dimension and nothing is registered.
func (s *System) AddPrepared(name string, p Prepared) error {
	_, err := s.SwapPrepared(name, p)
	return err
}

// SwapPrepared atomically replaces the runtime state registered under name
// and returns the previous state (nil if none). In-flight queries that
// already resolved the old state finish on it; queries arriving after the
// swap see only the new state. This is the zero-downtime rebuild primitive:
// build the new generation in the background, then SwapPrepared. A family
// loaded from disk is joined to the system's dimension tables first, as
// AddPrepared does.
func (s *System) SwapPrepared(name string, p Prepared) (prev Prepared, err error) {
	if err := p.(*smallGroupPrepared).bind(s.DB()); err != nil {
		return nil, err
	}
	s.update(func(set *preparedSet) {
		prev = set.prepared[name]
		set.prepared[name] = p
	})
	return prev, nil
}

// Strategies lists the registered strategy names, sorted.
func (s *System) Strategies() []string {
	set := s.set.Load()
	names := make([]string, 0, len(set.prepared))
	for n := range set.prepared {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Prepared returns the registered runtime state for a strategy.
func (s *System) Prepared(name string) (Prepared, bool) {
	p, ok := s.set.Load().prepared[name]
	return p, ok
}

// PreprocessTime returns how long a strategy's pre-processing took.
func (s *System) PreprocessTime(name string) time.Duration {
	return s.set.Load().prepTime[name]
}

// Approx answers the query with the named strategy. It is ApproxCtx with a
// background context — it cannot be cancelled.
func (s *System) Approx(strategy string, q *engine.Query) (*Answer, error) {
	return s.ApproxCtx(context.Background(), strategy, q)
}

// ApproxCtx answers the query with the named strategy under a context: it
// is ApproxBoundsCtx with no bounds.
func (s *System) ApproxCtx(ctx context.Context, strategy string, q *engine.Query) (*Answer, error) {
	return s.ApproxBoundsCtx(ctx, strategy, q, Bounds{})
}

// ApproxBoundsCtx answers the query with the named strategy under a context
// and per-request accuracy/latency bounds (Prepared.AnswerBounds).
func (s *System) ApproxBoundsCtx(ctx context.Context, strategy string, q *engine.Query, b Bounds) (*Answer, error) {
	// One atomic load pins this query to the current generation; a
	// concurrent SwapPrepared cannot change the state p points to.
	p, ok := s.set.Load().prepared[strategy]
	if !ok {
		return nil, fmt.Errorf("core: strategy %q not registered", strategy)
	}
	if err := q.Validate(s.DB()); err != nil {
		return nil, err
	}
	ans, err := p.AnswerBounds(ctx, q, b)
	if err == nil {
		obsAnswers.With(strategy).Inc()
		obsSampleRows.Add(uint64(max(ans.RowsRead, 0)))
	}
	return ans, err
}

// Exact computes the exact answer by scanning the base data. It is ExactCtx
// with a background context.
func (s *System) Exact(q *engine.Query) (*engine.Result, time.Duration, error) {
	return s.ExactCtx(context.Background(), q)
}

// ExactCtx computes the exact answer under a context; the base-table scan
// observes cancellation at shard boundaries. The returned duration covers
// only the engine execution, so /exact and /query latencies are comparable.
//
// The scan runs on the largest worker budget a registered strategy was given
// (SmallGroupConfig.Workers, SetWorkers) — the one its plans' own scans use;
// the answer is the same for every budget.
func (s *System) ExactCtx(ctx context.Context, q *engine.Query) (*engine.Result, time.Duration, error) {
	start := time.Now()
	db, workers := s.DB(), 1
	for _, p := range s.set.Load().prepared {
		workers = max(workers, p.workers())
	}
	if err := q.Validate(db); err != nil {
		return nil, time.Since(start), err
	}
	res, err := engine.ExecuteCtx(ctx, db, q, engine.ExecOptions{MarkExact: true, Workers: workers})
	return res, time.Since(start), err
}
