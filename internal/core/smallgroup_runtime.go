package core

import (
	"context"
	"math"
	"time"

	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/obs"
	"dynsample/internal/parallel"
	"dynsample/internal/stats"
)

// sampleSource is one stored sample: a flat join-synopsis table or a
// renormalized star schema.
type sampleSource struct {
	src  engine.Source
	name string
}

func (s sampleSource) rows() int64 { return int64(s.src.NumRows()) }

func (s sampleSource) bytes(size func(*engine.Table) int64) int64 {
	switch v := s.src.(type) {
	case *engine.Table:
		return size(v)
	case *engine.Database:
		return size(v.Fact) // shared reduced dimensions counted once, separately
	default:
		return 0
	}
}

// smallGroupPrepared is Prepared's one implementation: the small group tables
// (one per column of S), the overall sample, and the metadata catalog used
// for sample selection. A single-table baseline is the family with S empty
// (SmallGroupConfig.Columns).
type smallGroupPrepared struct {
	db           *engine.Database
	meta         *Metadata
	cfg          SmallGroupConfig
	tables       []sampleSource // indexed by ColumnMeta.Index
	overall      sampleSource
	overallScale float64 // 1 when the overall sample carries per-row weights
	// dataGen is the ingest data generation the samples reflect: the number
	// of ingest batches whose rows are represented in the sample family.
	// Zero for freshly pre-processed or pre-ingest state.
	dataGen uint64
	// sharedDims holds the renormalized storage's shared reduced dimension
	// tables (nil for flat join synopses).
	sharedDims []*engine.Table
	// pstats holds the lazily built planner statistics (per-column marginal
	// distributions, calibrated scan rate); every constructor sets it. It is
	// shared by pointer across the copy-on-write clones the online ingest
	// path publishes, so the scan calibration survives sample maintenance.
	pstats *plannerStats
}

// Meta implements Prepared.
func (p *smallGroupPrepared) Meta() *Metadata { return p.meta }

// DataGeneration implements Prepared.
func (p *smallGroupPrepared) DataGeneration() uint64 { return p.dataGen }

// SetWorkers implements WorkerConfigurable: it sets the runtime worker
// budget used by every subsequent Answer call (see SmallGroupConfig.Workers).
// Call it before serving queries; it is not synchronised with concurrent
// Answer calls.
func (p *smallGroupPrepared) SetWorkers(n int) {
	if n > 0 {
		p.cfg.Workers = n
	}
}

// workers is the budget System.ExactCtx scans the base data with.
func (p *smallGroupPrepared) workers() int { return p.cfg.Workers }

// Tables exposes the flat small group tables in index order. It panics for
// renormalized storage; use Sources then.
func (p *smallGroupPrepared) Tables() []*engine.Table {
	out := make([]*engine.Table, len(p.tables))
	for i, s := range p.tables {
		out[i] = s.src.(*engine.Table)
	}
	return out
}

// Overall exposes the overall sample table (flat storage only).
func (p *smallGroupPrepared) Overall() *engine.Table { return p.overall.src.(*engine.Table) }

// Plan builds the default rewritten query (§4.2.2): the full descriptor —
// every relevant small group table plus the whole overall sample — built
// without consulting the planner.
func (p *smallGroupPrepared) Plan(q *engine.Query) *RewritePlan { return p.build(q, p.full(q)) }

// Answer implements Prepared. It is AnswerCtx with a background context.
func (p *smallGroupPrepared) Answer(q *engine.Query) (*Answer, error) {
	return p.AnswerCtx(context.Background(), q)
}

// AnswerCtx is AnswerBounds with no bounds. Cancellation propagates into
// every step's sharded scan; when ctx also carries a deadline, the planner
// picks the most accurate plan predicted to fit the remaining budget
// (falling back to the cheapest plan, flagged Answer.Degraded, when nothing
// fits).
func (p *smallGroupPrepared) AnswerCtx(ctx context.Context, q *engine.Query) (*Answer, error) {
	return p.AnswerBounds(ctx, q, Bounds{})
}

// choose is sample selection (§3.2's "compare the query with the metadata"):
// three regimes, each one selector over the same candidate descriptors.
// Explicit bounds explore the whole space (table prefixes × overall-sample
// fractions × the exact fallback) and select strictly, recording the
// decision; a request deadline without stated bounds is the degradation
// path — the most accurate table prefix fitting the budget; anything else is
// the full descriptor, with no prediction run at all.
func (p *smallGroupPrepared) choose(ctx context.Context, q *engine.Query, b Bounds, conf float64) (chosen *candidate, decision *PlanDecision, degraded bool, err error) {
	deadline, hasDeadline := ctx.Deadline()
	switch {
	case !b.IsZero():
		cands, _, caveats := p.enumerate(q, conf, true)
		obsPlannerCandidates.Observe(float64(len(cands)))
		var soft time.Duration
		if hasDeadline {
			soft = time.Until(deadline)
		}
		if chosen, err = selectBounded(cands, b, soft); err != nil {
			obsPlannerUnsat.Inc()
			return nil, nil, false, err
		}
		decision = &PlanDecision{
			Bounds:     Bounds{ErrorBound: b.ErrorBound, TimeBound: b.TimeBound, Confidence: conf},
			Chosen:     chosen.PlanCandidate,
			Candidates: cheapestFirst(cands),
			Caveats:    caveats,
		}
	case hasDeadline:
		cands, full, _ := p.enumerate(q, conf, false)
		chosen, degraded = selectForDeadline(cands, full, time.Until(deadline))
	default:
		chosen = p.full(q)
	}
	return chosen, decision, degraded, nil
}

// AnswerBounds implements Prepared, and is the runtime phase as one
// pipeline for every kind of query: enumerate → choose (both in choose) →
// build → execute → mark exactness → intervals. Given bounds, it plans toward
// them (see planner.go) and reports the decision — predicted vs achieved
// error, every candidate considered — in Answer.Plan; when no candidate
// satisfies them it returns an *UnsatisfiableBoundsError without executing
// anything.
func (p *smallGroupPrepared) AnswerBounds(ctx context.Context, q *engine.Query, b Bounds) (*Answer, error) {
	start := time.Now()
	tr := obs.TraceFrom(ctx)
	endStage := tr.StartStage("select")
	conf := p.confidence(b)
	chosen, decision, degraded, err := p.choose(ctx, q, b, conf)
	if err != nil {
		endStage()
		return nil, err
	}
	plan := p.build(q, chosen)
	scanRows := planRows(plan)
	obsPlanSteps.Observe(float64(len(plan.Steps)))
	if degraded {
		obsDegraded.Inc()
	}
	endStage()
	tr.SetDegraded(degraded)
	// States restored from disk have no base data attached (p.db nil);
	// they report rows read but no sampling fraction.
	if p.db != nil && p.db.NumRows() > 0 {
		tr.SetSamplingFraction(float64(scanRows) / float64(p.db.NumRows()))
	}
	execStart := time.Now()
	combined, rowsRead, err := ExecutePlanCtx(ctx, plan)
	if err != nil {
		return nil, err
	}
	// Feed the scan-throughput calibration from every executed plan, so
	// latency predictions track the machine the server actually runs on.
	p.pstats.rate.observe(scanRows, time.Since(execStart))
	endStage = tr.StartStage("finalize")
	if !chosen.Exact {
		// Mark exactness from the metadata: a group is exact when one of the
		// chosen tables stores all of its rows undownsampled (§4.2.2: "answers
		// for groups that result from querying small group tables are marked
		// as being exact"). Under the multi-level extension, medium-band
		// groups are estimated from their subsampled rows and stay inexact.
		// The exact-fallback plan skips this: the engine already marked every
		// group exact.
		used := make(map[int]bool, len(chosen.refs))
		for _, ref := range chosen.refs {
			used[ref.Index] = true
		}
		for _, g := range combined.Groups() {
			g.Exact = p.meta.GroupIsExact(q.GroupBy, g.Key, used)
		}
	}
	ivs := ConfidenceIntervals(combined, conf)
	ans := &Answer{
		Result:    combined,
		Intervals: ivs,
		RowsRead:  rowsRead,
		Elapsed:   time.Since(start),
		Rewrite:   plan,
		Degraded:  degraded,
		Plan:      decision,
	}
	if decision != nil {
		decision.AchievedError = AchievedError(combined, ivs)
		obsPlannerGap.Observe(math.Abs(decision.AchievedError - decision.Chosen.PredictedError))
		if b.ErrorBound > 0 && decision.AchievedError > b.ErrorBound {
			obsPlannerBoundMiss.Inc()
		}
		tr.SetPlanner(plannerTrace(decision))
	}
	endStage()
	tr.SetRowsRead(rowsRead)
	return ans, nil
}

// plannerTrace converts a PlanDecision into its explain-trace form.
func plannerTrace(d *PlanDecision) *obs.PlannerData {
	pd := &obs.PlannerData{
		ErrorBound:      d.Bounds.ErrorBound,
		TimeBoundMicros: d.Bounds.TimeBound.Microseconds(),
		Confidence:      d.Bounds.Confidence,
		Chosen:          d.Chosen.Name,
		PredictedError:  d.Chosen.PredictedError,
		AchievedError:   d.AchievedError,
		Caveats:         d.Caveats,
	}
	for _, c := range d.Candidates {
		pd.Candidates = append(pd.Candidates, obs.PlannerCandidate{
			Plan:                   c.Name,
			Rows:                   c.Rows,
			PredictedError:         c.PredictedError,
			PredictedLatencyMicros: c.PredictedLatencyMicros,
			Exact:                  c.Exact,
			Feasible:               c.Feasible,
		})
	}
	return pd
}

// planRows is the total number of sample rows a plan scans, before
// predicate or bitmask filtering (the quantity latency predictions budget
// against), honouring per-step MaxRows caps.
func planRows(plan *RewritePlan) int64 {
	var n int64
	for _, st := range plan.Steps {
		n += stepRows(st)
	}
	return n
}

// stepRows is the number of rows one step scans (its source size, capped by
// MaxRows).
func stepRows(st RewriteStep) int64 {
	n := int64(st.Source.NumRows())
	if st.MaxRows > 0 && int64(st.MaxRows) < n {
		n = int64(st.MaxRows)
	}
	return n
}

// SampleRows implements Prepared.
func (p *smallGroupPrepared) SampleRows() int64 {
	n := p.overall.rows()
	for _, t := range p.tables {
		n += t.rows()
	}
	return n
}

// SampleBytes implements Prepared: the logical size the space budgets count.
func (p *smallGroupPrepared) SampleBytes() int64 { return p.bytes((*engine.Table).ApproxBytes) }

// StoredBytes implements Prepared.
func (p *smallGroupPrepared) StoredBytes() int64 { return p.bytes((*engine.Table).StoredBytes) }

// bytes sums a size over the sample tables. For renormalized storage the
// shared reduced dimension tables are counted once.
func (p *smallGroupPrepared) bytes(size func(*engine.Table) int64) int64 {
	b := p.overall.bytes(size)
	for _, t := range p.tables {
		b += t.bytes(size)
	}
	for _, d := range p.sharedDims {
		b += size(d)
	}
	return b
}

// ExecutePlan runs every step of a rewrite plan and merges the partial
// results, returning the combined result and total sample rows scanned. It
// is ExecutePlanCtx with a background context.
func ExecutePlan(plan *RewritePlan) (*engine.Result, int64, error) {
	return ExecutePlanCtx(context.Background(), plan)
}

// ExecutePlanCtx runs a rewrite plan under a context.
//
// The steps — the branches of the rewritten UNION ALL — execute as up to
// plan.Workers parallel tasks, each itself a partitioned scan, and the
// per-step results are merged in step order on the calling goroutine.
// Goroutines are cheap and blocked shards release workers quickly, so mild
// oversubscription (steps × scan workers) beats partitioning the budget. The
// bitmask anti-double-counting semantics are unaffected: each step's Exclude
// mask was fixed at plan time, so no step depends on another's output.
//
// Cancellation propagates to every step's sharded scan: once ctx is done,
// no new shard starts and ExecutePlanCtx returns ctx.Err(). A panic inside
// a step (only ever seen with fault injection) is contained by the worker
// pool and surfaces as an error, not a process crash.
func ExecutePlanCtx(ctx context.Context, plan *RewritePlan) (*engine.Result, int64, error) {
	tr := obs.TraceFrom(ctx)
	endStage := tr.StartStage("execute")
	// Each step writes its own slot, so the concurrent fan-out records
	// without sharing; the slots are appended to the trace afterwards, in
	// step order.
	stepObs := make([]obs.SampleExec, len(plan.Steps))
	partials := make([]*engine.Result, len(plan.Steps))
	err := parallel.ForEachCtx(ctx, plan.Workers, len(plan.Steps), func(i int) error {
		faults.Fire(ctx, faults.PointPlanStep, i)
		st := plan.Steps[i]
		stepStart := time.Now()
		res, err := engine.ExecuteCtx(ctx, st.Source, plan.Query, engine.ExecOptions{
			Scale:       st.Scale,
			ExcludeMask: st.Exclude,
			MarkExact:   st.MarkExact,
			MaxRows:     st.MaxRows,
			Workers:     plan.Workers,
		})
		if err != nil {
			return err
		}
		stepObs[i] = obs.SampleExec{
			Table:  st.Name,
			Rows:   res.RowsScanned,
			Shards: engine.ShardsFor(int(stepRows(st))),
			Scale:  st.Scale,
			Micros: time.Since(stepStart).Microseconds(),
		}
		partials[i] = res
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	endStage()
	for _, s := range stepObs {
		tr.AddSample(s)
	}
	endStage = tr.StartStage("combine")
	combined := engine.NewResult(plan.Query.GroupBy, plan.Query.Aggs)
	var rowsRead int64
	for _, res := range partials {
		rowsRead += res.RowsScanned
		if err := combined.Consume(res); err != nil {
			return nil, 0, err
		}
	}
	endStage()
	return combined, rowsRead, nil
}

// ConfidenceIntervals derives per-group, per-aggregate intervals from the
// Horvitz-Thompson variance accumulators. Exact groups carry no sampling
// error: their COUNTs and integer sums get zero-width intervals, their float
// sums the width of floating-point summation itself (exactSum). COUNT
// intervals are clamped at zero. This is the simple single-stratum
// computation the paper highlights (§4.2.2): "confidence interval
// calculation is very simple when using small group sampling because the
// source of inaccuracy can be restricted to a single stratum".
func ConfidenceIntervals(res *engine.Result, level float64) map[engine.GroupKey][]stats.Interval {
	if level == 0 {
		level = DefaultConfidenceLevel
	}
	z := stats.NormalQuantile(0.5 + level/2)
	out := make(map[engine.GroupKey][]stats.Interval, res.NumGroups())
	for _, k := range res.Keys() {
		g := res.Group(k)
		ivs := make([]stats.Interval, len(res.Aggs))
		for i := range res.Aggs {
			if g.Exact {
				ivs[i] = exactSum(g, i)
				continue
			}
			sd := math.Sqrt(math.Max(g.VarAcc[i], 0))
			lo, hi := g.Vals[i]-z*sd, g.Vals[i]+z*sd
			if res.Aggs[i].Kind == engine.Count && lo < 0 {
				lo = 0
			}
			ivs[i] = stats.Interval{Lo: lo, Hi: hi, Level: level}
		}
		out[k] = ivs
	}
	return out
}

// exactSum is the interval of an exact group's aggregate i. Every row was
// read, so the only error left is float64 addition's: the same n values
// summed in another order — /v1/exact adds in shard order, a plan in step
// order — can land an ulp or more apart, and a zero-width interval would
// claim a precision the arithmetic does not deliver. Any summation order is
// within (n−1)·u·Σ|x| of the true sum (u = 2⁻⁵³, first order), so two
// orders are within 2(n−1)·u·Σ|x| of each other; Σ|x| ≤ √(n·Σx²) by
// Cauchy–Schwarz, both of which the group already accumulates. The half-width
// is n·2⁻⁵²·√(n·Σx²): n for n−1 absorbs the second-order terms.
//
// Integers below 2⁵³ add exactly in any order, so a COUNT, and a SUM whose
// raw sum and raw sum of squares are whole numbers with √(n·Σx²) < 2⁵³ —
// every integer measure of that magnitude — keep lo == hi.
func exactSum(g *engine.Group, i int) stats.Interval {
	v, n, sumSq := g.Vals[i], float64(g.RawRows), g.RawSumSq[i]
	if n < 2 || (v == math.Trunc(v) && sumSq == math.Trunc(sumSq) && n*sumSq < 1<<106) {
		return stats.Exact(v)
	}
	e := n * math.Sqrt(n*sumSq) / (1 << 52)
	return stats.Interval{Lo: v - e, Hi: v + e, Level: 1}
}
