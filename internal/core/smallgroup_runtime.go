package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/obs"
	"dynsample/internal/parallel"
	"dynsample/internal/stats"
)

// sampleSource is one stored sample, the overall sample or a small group
// table: a fact slice joined to the dimension tables
// (engine.Database.FactSlice).
type sampleSource struct {
	src  *engine.Database
	name string
}

func (s sampleSource) rows() int64 { return int64(s.src.NumRows()) }

// smallGroupPrepared is Prepared's one implementation: the small group tables
// (one per column of S), the overall sample, and the metadata catalog used
// for sample selection. A single-table baseline is the family with S empty
// (SmallGroupConfig.Columns).
type smallGroupPrepared struct {
	db           *engine.Database
	meta         *Metadata
	cfg          SmallGroupConfig
	tables       []sampleSource // fact slices, indexed by ColumnMeta.Index
	overall      sampleSource
	overallScale float64 // 1 when the overall sample carries per-row weights
	// dataGen is the ingest data generation the samples reflect: the number
	// of ingest batches whose rows are represented in the sample family.
	// Zero for freshly pre-processed or pre-ingest state.
	dataGen uint64
	// dims are the dimension tables of the newest database the family
	// serves: each fact slice is joined to them or to an earlier version,
	// the one it was last appended under (appends only add dimension rows).
	// A family loaded from disk has none until a System binds it (bind);
	// until then stamps records the dimensions it was saved over.
	dims   []engine.DimJoin
	stamps []dimStamp
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

// Tables returns the small group tables in index order, each fact slice
// flattened through its join: the flat join synopses the family's rows make.
func (p *smallGroupPrepared) Tables() []*engine.Table {
	out := make([]*engine.Table, len(p.tables))
	for i, s := range p.tables {
		out[i] = s.src.Flat(s.name)
	}
	return out
}

// Overall returns the overall sample flattened through its join, as Tables
// does the small group tables.
func (p *smallGroupPrepared) Overall() *engine.Table { return p.overall.src.Flat(p.overall.name) }

// samples returns every sample the family stores: the small group tables in
// index order, then the overall sample.
func (p *smallGroupPrepared) samples() []*sampleSource {
	out := make([]*sampleSource, 0, len(p.tables)+1)
	for i := range p.tables {
		out = append(out, &p.tables[i])
	}
	return append(out, &p.overall)
}

// ErrOtherDimensions is wrapped by the error binding a family loaded from
// disk to a database returns when the database's dimension tables are not
// the ones the family was saved over.
var ErrOtherDimensions = errors.New("the family was saved over other dimension tables")

// bind joins the fact slices of a family loaded from disk to db's dimension
// tables, once and in place, so bind a family before it serves. Each
// dimension must be the table the family was saved over, grown or not: the
// same name and foreign key, and at least the rows recorded, which must hold
// what they held (the same Checksum). A family that is bound already, or
// was built in this process, is left as it is, as is one loaded from disk
// that joins no dimension table, so long as db has as many dimension tables
// as it joins: a family saved over a flat table cannot serve a star schema.
func (p *smallGroupPrepared) bind(db *engine.Database) error {
	if p.stamps == nil {
		if len(db.Dims) != len(p.dims) {
			return fmt.Errorf("core: %w: it joins %d, the database has %d", ErrOtherDimensions, len(p.dims), len(db.Dims))
		}
		return nil
	}
	if len(db.Dims) != len(p.stamps) {
		return fmt.Errorf("core: %w: it joins %d, the database has %d", ErrOtherDimensions, len(p.stamps), len(db.Dims))
	}
	for d, st := range p.stamps {
		switch t := db.Dims[d].Table; {
		case t.Name != st.name || db.Dims[d].FK != st.fk:
			return fmt.Errorf("core: %w: dimension %d is %q through %q, the family joins %q through %q", ErrOtherDimensions, d, t.Name, db.Dims[d].FK, st.name, st.fk)
		case t.NumRows() < st.rows:
			return fmt.Errorf("core: %w: dimension %q has %d rows, the family was saved over %d", ErrOtherDimensions, st.name, t.NumRows(), st.rows)
		case t.Checksum(st.rows) != st.sum:
			return fmt.Errorf("core: %w: dimension %q holds other rows than the family was saved over", ErrOtherDimensions, st.name)
		}
	}
	for _, t := range p.samples() {
		fact := t.src.Fact
		slice, err := engine.NewDatabase(t.name, fact, db.Dims...)
		if err != nil {
			return fmt.Errorf("core: binding %s: %w", t.name, err)
		}
		// The slice was read from disk: a key past the rows the family was
		// saved over would send a scan out of the dimension's storage.
		for _, st := range p.stamps {
			fk := fact.Column(st.fk)
			for r := range fact.NumRows() {
				if k := fk.Int(r); k < 0 || k >= int64(st.rows) {
					return fmt.Errorf("core: binding %s: row %d refers to row %d of dimension %q, which was saved with %d", t.name, r, k, st.name, st.rows)
				}
			}
		}
		t.src = slice
	}
	p.dims, p.stamps = db.Dims, nil
	return nil
}

// Plan builds the default rewritten query (§4.2.2): the full descriptor —
// every relevant small group table plus the whole overall sample — built
// without consulting the planner.
func (p *smallGroupPrepared) Plan(q *engine.Query) *RewritePlan { return p.build(q, p.full(q)) }

// Answer implements Prepared. It is AnswerCtx with a background context.
func (p *smallGroupPrepared) Answer(q *engine.Query) (*Answer, error) {
	return p.AnswerCtx(context.Background(), q)
}

// AnswerCtx is AnswerBounds with no bounds. Cancellation propagates into
// every step's sharded scan; when ctx also carries a deadline shorter than
// the full plan's predicted latency, the planner picks the most accurate plan
// predicted to fit the remaining budget (falling back to the cheapest plan)
// and flags the answer Answer.Degraded.
func (p *smallGroupPrepared) AnswerCtx(ctx context.Context, q *engine.Query) (*Answer, error) {
	return p.AnswerBounds(ctx, q, Bounds{})
}

// choose is sample selection (§3.2's "compare the query with the metadata"):
// two regimes over the same candidate descriptors. Stated bounds explore the
// whole space (table prefixes × overall-sample fractions × the exact
// fallback) and select strictly, recording the decision. Anything else is
// the full descriptor, with no prediction run at all — unless a request
// deadline leaves less time than the full plan's predicted latency: then the
// answer is degraded to the most accurate table prefix that fits.
func (p *smallGroupPrepared) choose(ctx context.Context, q *engine.Query, b Bounds, conf float64) (chosen *candidate, decision *PlanDecision, degraded bool, err error) {
	deadline, hasDeadline := ctx.Deadline()
	if b.IsZero() {
		chosen = p.full(q)
		if hasDeadline {
			rate := p.scanRate()
			chosen.price(rate)
			if budget := time.Until(deadline); chosen.PredictedLatency > budget {
				cands, _ := p.enumerate(q, conf, rate, false)
				chosen, degraded = selectForDeadline(cands, budget), true
			}
		}
		return chosen, nil, degraded, nil
	}
	cands, caveats := p.enumerate(q, conf, p.scanRate(), true)
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
	return chosen, decision, false, nil
}

// AnswerBounds implements Prepared, and is the runtime phase as one
// pipeline for every kind of query: enumerate → choose (both in choose) →
// build → execute → mark exactness → intervals. Given bounds, it plans toward
// them (see planner.go) and reports the decision — predicted vs achieved
// error, every candidate considered — in Answer.Plan; when no candidate
// satisfies them it returns an *UnsatisfiableBoundsError without executing
// anything.
func (p *smallGroupPrepared) AnswerBounds(ctx context.Context, q *engine.Query, b Bounds) (*Answer, error) {
	if p.stamps != nil { // loaded and not bound: its slices cannot read a dimension column
		return nil, errors.New("core: the family is not joined to its dimension tables yet: register it with System.AddPrepared first")
	}
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
	if plan.owners != nil {
		// Mark exactness by the owner rule: a group is exact when the table
		// that answers it stores it at a 100% rate (owners.owner). The
		// exact-fallback plan has no owners: the engine already marked every
		// group exact.
		combined.Each(func(_ engine.GroupKey, g *engine.Group) {
			_, g.Exact = plan.owners.owner(g.Key)
		})
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
// predicate filtering (the quantity latency predictions budget against),
// honouring per-step MaxRows caps.
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
	var n int64
	for _, s := range p.samples() {
		n += s.rows()
	}
	return n
}

// SampleBytes implements Prepared: the logical size the space budgets count,
// the samples' fact tables. Their dimension tables are the base data's.
func (p *smallGroupPrepared) SampleBytes() int64 {
	var b int64
	for _, s := range p.samples() {
		b += s.src.Fact.ApproxBytes()
	}
	return b
}

// StoredBytes implements Prepared: what the samples' fact tables and joins
// (engine.Database.ViewBytes) hold, and the metadata's value sets.
func (p *smallGroupPrepared) StoredBytes() int64 {
	b := p.meta.heldBytes()
	for _, s := range p.samples() {
		b += s.src.Fact.StoredBytes() + s.src.ViewBytes()
	}
	return b
}

// ExecutePlanCtx runs every step of a rewrite plan under a context and
// merges the partial results, returning the combined result and total
// sample rows scanned.
//
// The steps — the branches of the rewritten UNION ALL — execute as up to
// plan.Workers parallel tasks, each itself a partitioned scan, and the
// per-step results are merged in step order on the calling goroutine.
// Goroutines are cheap and blocked shards release workers quickly, so mild
// oversubscription (steps × scan workers) beats partitioning the budget. No
// step depends on another's output: the merge drops from each step's partial
// the groups an earlier step owns (RewritePlan.owners), before the groups it
// keeps are added, so every sum is added in step order as the paper's
// row-level "bitmask & m = 0" filter would leave it.
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
			Scale:     st.Scale,
			MarkExact: st.MarkExact,
			MaxRows:   st.MaxRows,
			Workers:   plan.Workers,
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
	for j, res := range partials {
		rowsRead += res.RowsScanned
		var keep func(key []engine.Value) bool // the groups no earlier step owns
		if plan.owners != nil && j > 0 {
			keep = func(key []engine.Value) bool {
				step, _ := plan.owners.owner(key)
				return step >= j
			}
		}
		if err := combined.ConsumeKeeping(res, keep); err != nil {
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
	res.Each(func(k engine.GroupKey, g *engine.Group) {
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
	})
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
