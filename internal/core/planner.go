package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynsample/internal/bitmask"
	"dynsample/internal/engine"
	"dynsample/internal/stats"
)

// This file implements the cost-based sample planner: the runtime half of the
// paper's analytical error model (§4.4) turned into a per-query optimizer.
// A caller states an error bound (relative error at a confidence level)
// and/or a time bound; the planner enumerates candidate plans — subsets of
// the relevant small group tables × a sampling fraction of the overall
// sample × the exact fallback — predicts each candidate's error from the
// §4.4 model and its latency from calibrated scan-cost statistics, and picks
// the cheapest plan predicted to satisfy the bounds. docs/ACCURACY.md is the
// written contract for what these predictions do and do not guarantee.

// Bounds are the per-request quality/latency requirements of a bounded
// query. The zero value means "no bounds": the strategy's default plan.
type Bounds struct {
	// ErrorBound is the requested maximum relative error per group at the
	// Confidence level, e.g. 0.05 for ±5%. Zero means unbounded error.
	ErrorBound float64
	// TimeBound is the requested maximum predicted execution latency. Zero
	// means unbounded time.
	TimeBound time.Duration
	// Confidence is the confidence level the error bound (and the answer's
	// intervals) are stated at. Zero means DefaultConfidenceLevel.
	Confidence float64
}

// IsZero reports whether no bound was requested.
func (b Bounds) IsZero() bool { return b.ErrorBound == 0 && b.TimeBound == 0 }

// PlanCandidate is one plan the planner considered, with its predictions.
type PlanCandidate struct {
	// Name identifies the plan, e.g. "sg_store_region+sg_overall/0.25" or
	// "exact".
	Name string `json:"plan"`
	// Tables are the small group tables the plan reads (empty for the
	// overall-only and exact plans).
	Tables []string `json:"tables,omitempty"`
	// OverallFraction is the fraction of the overall sample scanned (the
	// sampling-fraction knob); 0 for the exact plan.
	OverallFraction float64 `json:"overall_fraction,omitempty"`
	// Rows is the total rows the plan scans, known from the metadata without
	// executing anything.
	Rows int64 `json:"rows"`
	// PredictedError is the §4.4-model prediction of the answer's mean
	// per-group relative error at the confidence level.
	PredictedError float64 `json:"predicted_error"`
	// PredictedLatency is Rows divided by the calibrated scan throughput.
	PredictedLatency time.Duration `json:"-"`
	// PredictedLatencyMicros mirrors PredictedLatency for JSON clients.
	PredictedLatencyMicros int64 `json:"predicted_latency_micros"`
	// Exact marks the exact-fallback plan (full base-table scan, zero error).
	Exact bool `json:"exact,omitempty"`
	// Feasible reports whether the plan was predicted to satisfy the
	// requested bounds.
	Feasible bool `json:"feasible"`
}

// PlanDecision records what the planner did for one bounded query: every
// candidate considered, the chosen plan, and the realized (achieved) error.
type PlanDecision struct {
	// Bounds are the requested bounds, with Confidence resolved.
	Bounds Bounds `json:"-"`
	// Chosen is the selected candidate.
	Chosen PlanCandidate `json:"chosen"`
	// Candidates lists every plan considered, cheapest first.
	Candidates []PlanCandidate `json:"candidates,omitempty"`
	// AchievedError is the realized mean per-group relative error, estimated
	// from the answer's confidence intervals (half-width / estimate, capped
	// at 1; exact groups contribute 0). It is an online estimate, not a
	// comparison against ground truth — see docs/ACCURACY.md.
	AchievedError float64 `json:"achieved_error"`
	// Caveats list why the prediction may be unreliable for this query
	// (selection predicates, columns without metadata, multi-level bands).
	Caveats []string `json:"caveats,omitempty"`
}

// UnsatisfiableBoundsError reports that no candidate plan — including the
// exact fallback, when available — was predicted to satisfy the requested
// bounds. It carries the best achievable figures so clients can retry with
// realistic bounds.
type UnsatisfiableBoundsError struct {
	// Bounds are the bounds that could not be met.
	Bounds Bounds
	// BestError is the smallest predicted error among candidates that fit
	// the time bound (among all candidates when no time bound was given).
	BestError float64
	// BestLatency is the smallest predicted latency among candidates that
	// meet the error bound (among all candidates when no error bound was
	// given).
	BestLatency time.Duration
}

// Error implements error.
func (e *UnsatisfiableBoundsError) Error() string {
	parts := make([]string, 0, 2)
	if e.Bounds.ErrorBound > 0 {
		parts = append(parts, fmt.Sprintf("error_bound %g (best achievable %.4g)", e.Bounds.ErrorBound, e.BestError))
	}
	if e.Bounds.TimeBound > 0 {
		parts = append(parts, fmt.Sprintf("time_bound %v (best achievable %v)", e.Bounds.TimeBound, e.BestLatency.Round(time.Microsecond)))
	}
	return "core: no plan satisfies " + strings.Join(parts, " and ")
}

// costRate is the calibrated scan-throughput estimate: an exponentially
// weighted moving average of observed rows/second over executed plans,
// updated lock-free so concurrent queries can feed it.
type costRate struct {
	bits atomic.Uint64 // math.Float64bits of the EWMA; 0 = no observations
}

// observe folds one plan execution into the moving average.
func (c *costRate) observe(rows int64, elapsed time.Duration) {
	if rows <= 0 || elapsed <= 0 {
		return
	}
	r := float64(rows) / elapsed.Seconds()
	for {
		old := c.bits.Load()
		next := r
		if old != 0 {
			next = 0.7*math.Float64frombits(old) + 0.3*r
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// estimate returns the calibrated rate, or ok=false before any observation.
func (c *costRate) estimate() (float64, bool) {
	bits := c.bits.Load()
	if bits == 0 {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

// countBucket summarises a band of similarly-sized groups: vals distinct
// values averaging rows base rows each.
type countBucket struct {
	rows float64
	vals float64
}

// colDist is the planner's compact marginal distribution for one column of
// S: log-bucketed estimated frequencies of the common values (recovered from
// the overall sample, so it works for states restored from disk and tracks
// ingested data up to the last reservoir refresh) plus the rare-side summary
// from the exact pre-processing metadata.
type colDist struct {
	common     []countBucket
	rareVals   float64
	rareRows   float64
	multiLevel bool
	// outsideS marks a column with no small group table: its marginal is
	// estimated purely from the overall sample, so values too rare to be
	// sampled are invisible and the prediction can be optimistic.
	outsideS bool
}

// plannerStats is the lazily built, immutable-after-build planner input for
// one prepared sample family. It is shared (by pointer) across the
// copy-on-write clones the online ingest path publishes, so the calibrated
// scan rate survives sample maintenance; the histograms are rebuilt only by
// a full rebuild, which is exactly when the metadata they derive from
// changes. See docs/ACCURACY.md for the staleness caveats.
type plannerStats struct {
	once sync.Once
	rate costRate

	cols        map[string]colDist
	baseRows    float64
	overallRows int64
	uniform     bool // overall sample is flat, unweighted, uniformly drawn
}

// build derives the per-column marginal distributions by one pass over the
// overall sample per column of S.
func (ps *plannerStats) build(p *smallGroupPrepared) {
	ps.cols = make(map[string]colDist, len(p.meta.Columns()))
	src := p.overall.src
	ps.overallRows = int64(src.NumRows())
	otbl, flat := src.(*engine.Table)
	fact := otbl // the table that stores the sample rows' weights
	if rdb, ok := src.(*engine.Database); ok {
		fact = rdb.Fact
	}
	ps.uniform = flat && otbl.Column(engine.WeightColumn) == nil && p.overallScale > 0
	ps.baseRows = float64(p.meta.BaseRows)
	if ps.uniform {
		// The live row count: overallScale is maintained across ingest.
		ps.baseRows = p.overallScale * float64(ps.overallRows)
	}
	scale := p.overallScale
	if scale <= 0 {
		scale = 1
	}
	for _, cm := range p.meta.Columns() {
		acc, err := src.Accessor(cm.Column)
		if err != nil {
			continue // renormalized layouts may not expose every column here
		}
		est := make(map[engine.Value]float64, len(cm.Common))
		for row := 0; row < int(ps.overallRows); row++ {
			v := acc.Value(row)
			if _, common := cm.Common[v]; common {
				est[v] += fact.RowWeight(row) * scale
			}
		}
		// Common values the sample missed still exist; credit them one
		// sample-row equivalent so they land in the smallest bucket.
		for v := range cm.Common {
			if _, ok := est[v]; !ok {
				est[v] = scale
			}
		}
		d := colDist{multiLevel: cm.Exact != nil, common: bucketize(est)}
		d.rareVals = float64(cm.Distinct - len(cm.Common))
		d.rareRows = float64(cm.RareRows)
		if d.rareVals <= 0 && d.rareRows > 0 {
			d.rareVals = 1
		}
		ps.cols[cm.Column] = d
	}
	// Columns outside S (no rare values worth a table, or too many distinct
	// values) still split group-bys. When the overall sample is a flat table
	// we can estimate their whole marginal from the sample — values it missed
	// stay invisible, which predictError surfaces as a caveat.
	if !flat {
		return
	}
	for _, col := range otbl.ColumnNames() {
		if _, done := ps.cols[col]; done || strings.HasPrefix(col, engine.ReservedPrefix) {
			continue
		}
		acc, err := src.Accessor(col)
		if err != nil {
			continue
		}
		est := make(map[engine.Value]float64)
		for row := 0; row < int(ps.overallRows); row++ {
			est[acc.Value(row)] += otbl.RowWeight(row) * scale
		}
		ps.cols[col] = colDist{common: bucketize(est), outsideS: true}
	}
}

// bucketize collapses estimated per-value frequencies into log2-spaced
// bands of similarly sized groups.
func bucketize(est map[engine.Value]float64) []countBucket {
	byBucket := make(map[int]*countBucket)
	for _, c := range est {
		if c <= 0 {
			continue
		}
		k := int(math.Floor(math.Log2(c)))
		b := byBucket[k]
		if b == nil {
			b = &countBucket{}
			byBucket[k] = b
		}
		b.rows += c
		b.vals++
	}
	out := make([]countBucket, 0, len(byBucket))
	for _, b := range byBucket {
		out = append(out, countBucket{rows: b.rows / b.vals, vals: b.vals})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rows < out[j].rows })
	return out
}

// marginal is one column's bucket list for the combo enumeration.
type marginal struct {
	col     string
	buckets []comboBucket
}

type comboBucket struct {
	p    float64 // probability a random base row carries a value of this band
	vals float64 // distinct values in the band
	rare bool    // band is stored in the column's small group table
}

// maxErrorCombos caps the bucket-combination enumeration; beyond it the
// per-column distributions collapse to two-point summaries.
const maxErrorCombos = 50000

// predictError evaluates the §4.4 error model online: the expected mean
// per-group relative error at confidence z of answering q from sampleRows
// overall-sample rows, with the small group tables of the columns in used
// answering their rare bands exactly. The model mirrors
// internal/model.Evaluate — per-group squared relative error (1−p)/(s·σ·p)
// capped at 1, groups weighted by their existence probability — with the
// group-probability distribution taken from the live marginals instead of an
// analytical two-point assumption, independence across grouping columns, and
// selectivity σ = 1 (see docs/ACCURACY.md for when that is unreliable).
func (ps *plannerStats) predictError(q *engine.Query, used map[string]bool, sampleRows float64, z float64) (float64, []string) {
	var caveats []string
	if len(q.Where) > 0 {
		caveats = append(caveats, "selection predicates: prediction assumes selectivity 1, so it understates the error of selective queries")
	}
	margs := make([]marginal, 0, len(q.GroupBy))
	combos := 1.0
	for _, col := range q.GroupBy {
		d, ok := ps.cols[col]
		if !ok {
			caveats = append(caveats, fmt.Sprintf("column %s has no sample metadata: prediction treats it as non-splitting and is optimistic", col))
			continue
		}
		if d.multiLevel && used[col] {
			caveats = append(caveats, fmt.Sprintf("column %s uses multi-level bands: subsampled medium groups are predicted as exact", col))
		}
		if d.outsideS {
			caveats = append(caveats, fmt.Sprintf("column %s has no small group table: its marginal is estimated from the overall sample alone, and values the sample missed are invisible to the prediction", col))
		}
		m := marginal{col: col}
		for _, b := range d.common {
			m.buckets = append(m.buckets, comboBucket{p: b.rows / ps.baseRows, vals: b.vals})
		}
		if d.rareVals > 0 {
			m.buckets = append(m.buckets, comboBucket{p: d.rareRows / d.rareVals / ps.baseRows, vals: d.rareVals, rare: true})
		}
		margs = append(margs, m)
		combos *= float64(len(m.buckets))
	}
	if len(margs) == 0 {
		// No splitting column: one global group, answered from the whole
		// sample — the model predicts (1−p)→0 error for it.
		return 0, caveats
	}
	if combos > maxErrorCombos {
		for i := range margs {
			margs[i].buckets = collapseTwoPoint(margs[i].buckets)
		}
	}

	var errSum, wSum float64
	var walk func(i int, p, vals float64, exact bool)
	walk = func(i int, p, vals float64, exact bool) {
		if i == len(margs) {
			w := vals * -math.Expm1(-ps.baseRows*p) // existence weight 1−e^{−N·p}
			if w <= 0 {
				return
			}
			e := 0.0
			if !exact {
				sp := sampleRows * p
				if sp <= 0 {
					e = 1
				} else {
					e = math.Min(1, z*math.Sqrt(math.Max(1-p, 1e-9)/sp))
				}
			}
			errSum += w * e
			wSum += w
			return
		}
		for _, b := range margs[i].buckets {
			walk(i+1, p*b.p, vals*b.vals, exact || (b.rare && used[margs[i].col]))
		}
	}
	walk(0, 1, 1, false)
	if wSum == 0 {
		return 0, caveats
	}
	return errSum / wSum, caveats
}

// collapseTwoPoint reduces a bucket list to at most one common and one rare
// bucket (the §4.4 two-point form), preserving total mass and value counts.
func collapseTwoPoint(buckets []comboBucket) []comboBucket {
	var out []comboBucket
	for _, want := range []bool{false, true} {
		var rows, vals float64
		for _, b := range buckets {
			if b.rare == want {
				rows += b.p * b.vals
				vals += b.vals
			}
		}
		if vals > 0 {
			out = append(out, comboBucket{p: rows / vals, vals: vals, rare: want})
		}
	}
	return out
}

// candidate describes one point of the selection space without building it:
// the small group tables that answer (in index order, the order the
// exclude-mask chain is laid in), how many leading rows of the overall sample
// are scanned, or the exact base scan. The embedded PlanCandidate names it and
// carries its row count and predictions. Only the chosen candidate is ever
// turned into steps (build).
type candidate struct {
	PlanCandidate
	refs        []TableRef
	overallRows int64
}

// defaultFractions are the overall-sample prefix fractions the planner
// explores. The overall sample is stored in base-row order, so a prefix is
// the sample of the leading base rows, not a uniform subsample of the
// sample: trimming trades error for rows with no statistical bias only when
// base-row order is independent of the data. A table clustered by time or
// by a grouping value breaks that condition, and a trimmed plan over it
// misses or misweights the groups laid out last.
var defaultFractions = []float64{1, 0.5, 0.25, 0.1}

// scanRate resolves the throughput estimate for latency predictions: the
// configured pin wins (tests and operators), then the calibrated moving
// average, then the conservative default.
func (p *smallGroupPrepared) scanRate() float64 {
	if r := p.cfg.ScanRowsPerSecond; r > 0 {
		return r
	}
	if r, ok := p.pstats.rate.estimate(); ok {
		return r
	}
	return DefaultScanRowsPerSecond
}

// stats returns the planner statistics, built on first use.
func (p *smallGroupPrepared) stats() *plannerStats {
	p.pstats.once.Do(func() { p.pstats.build(p) })
	return p.pstats
}

// confidence resolves the level an error bound and the answer's intervals
// are stated at: the request's, else the default.
func (p *smallGroupPrepared) confidence(b Bounds) float64 {
	if b.Confidence != 0 {
		return b.Confidence
	}
	return DefaultConfidenceLevel
}

// full is the descriptor of the default rewrite (§4.2.2): every relevant
// small group table, in index order, plus the whole overall sample. Under
// the MaxTablesPerQuery heuristic of §4.2.3 the tables covering the most
// rows (largest rare mass) are kept. It predicts nothing, so the default
// path pays for no planner statistics.
func (p *smallGroupPrepared) full(q *engine.Query) *candidate {
	relevant := p.meta.RelevantTables(q.GroupBy)
	if limit := p.cfg.MaxTablesPerQuery; limit > 0 && len(relevant) > limit {
		sort.Slice(relevant, func(i, j int) bool { return relevant[i].RareRows > relevant[j].RareRows })
		relevant = relevant[:limit]
		sort.Slice(relevant, func(i, j int) bool { return relevant[i].Index < relevant[j].Index })
	}
	return &candidate{refs: relevant, overallRows: p.overall.rows()}
}

// enumerate lists the candidates for q, predicted but neither built nor
// executed: every prefix (by descending rare-row mass, §4.2.3's preference
// order) of the full descriptor's tables, and the full descriptor itself at
// index full. With explore — the opt-in a stated bound gives — each prefix is
// also tried over every trimmed fraction of a uniform overall sample, and the
// exact fallback is appended when the base data is attached. Selection
// breaks ties by first seen, so the order is part of the contract.
func (p *smallGroupPrepared) enumerate(q *engine.Query, conf float64, explore bool) (cands []candidate, full int, caveats []string) {
	ps := p.stats()
	z := stats.NormalQuantile(0.5 + conf/2)
	pri := p.full(q).refs
	sort.Slice(pri, func(i, j int) bool { return pri[i].RareRows > pri[j].RareRows })
	fractions := defaultFractions
	if !explore || !ps.uniform {
		fractions = []float64{1}
	}
	for k := 0; k <= len(pri); k++ {
		refs := append([]TableRef(nil), pri[:k]...)
		sort.Slice(refs, func(i, j int) bool { return refs[i].Index < refs[j].Index })
		used := make(map[string]bool, k) // columns whose own table answers their rare values
		var names []string
		var tableRows int64
		for _, ref := range refs {
			if len(ref.Columns) == 1 {
				used[ref.Columns[0]] = true
			}
			names = append(names, p.tables[ref.Index].name)
			tableRows += p.tables[ref.Index].rows()
		}
		name := p.overall.name
		if k > 0 {
			name = strings.Join(names, "+") + "+" + name
		}
		seen := map[int64]bool{}
		for _, f := range fractions {
			m := max(1, int64(math.Ceil(f*float64(ps.overallRows))))
			if m >= ps.overallRows {
				m, f = ps.overallRows, 1
			}
			if seen[m] {
				continue
			}
			seen[m] = true
			c := candidate{refs: refs, overallRows: m, PlanCandidate: PlanCandidate{
				Name: name, Tables: names, OverallFraction: f, Rows: tableRows + m,
			}}
			var cavs []string
			c.PredictedError, cavs = ps.predictError(q, used, float64(m), z)
			if f < 1 {
				c.Name += fmt.Sprintf("/%g", f)
			}
			if k == len(pri) && f == 1 {
				full, caveats = len(cands), cavs // report the full plan's caveats once
			}
			cands = append(cands, c)
		}
	}
	if explore && p.db != nil {
		cands = append(cands, candidate{PlanCandidate: PlanCandidate{Name: "exact", Rows: int64(p.db.NumRows()), Exact: true}})
	}
	rate := p.scanRate()
	for i := range cands {
		c := &cands[i].PlanCandidate
		c.PredictedLatency = time.Duration(float64(c.Rows) / rate * float64(time.Second))
		c.PredictedLatencyMicros = c.PredictedLatency.Microseconds()
	}
	return cands, full, caveats
}

// build turns a descriptor into the rewritten query of §4.2.2: one step per
// small group table, each excluding the rows an earlier step already read
// (the chained bitmask filters that avoid double counting), plus the overall
// sample scaled by the inverse sampling rate. A descriptor that scans only a
// prefix of the overall sample caps the step there and scales it up by the
// trimmed share. The exact descriptor is one unscaled scan of the base data.
func (p *smallGroupPrepared) build(q *engine.Query, c *candidate) *RewritePlan {
	plan := &RewritePlan{Query: q, Workers: p.cfg.Workers}
	if c.Exact {
		plan.Steps = []RewriteStep{{Source: p.db, Name: p.db.Name, Scale: 1, MarkExact: true}}
		return plan
	}
	used := bitmask.New(p.meta.Width())
	for _, ref := range c.refs {
		t := p.tables[ref.Index]
		plan.Steps = append(plan.Steps, RewriteStep{Source: t.src, Name: t.name, Exclude: used.Clone(), Scale: 1})
		used.Set(ref.Index)
	}
	overall := RewriteStep{Source: p.overall.src, Name: p.overall.name, Exclude: used, Scale: p.overallScale}
	if total := p.overall.rows(); c.overallRows < total {
		overall.MaxRows = int(c.overallRows)
		overall.Scale = p.overallScale * float64(total) / float64(c.overallRows)
	}
	plan.Steps = append(plan.Steps, overall)
	return plan
}

// admits is the feasibility predicate: c is predicted to satisfy every bound
// b states.
func (b Bounds) admits(c *PlanCandidate) bool {
	return (b.ErrorBound == 0 || c.PredictedError <= b.ErrorBound) &&
		(b.TimeBound == 0 || c.PredictedLatency <= b.TimeBound)
}

// cheapestFirst is the candidate table a decision and a preview report.
func cheapestFirst(cands []candidate) []PlanCandidate {
	out := make([]PlanCandidate, len(cands))
	for i := range cands {
		out[i] = cands[i].PlanCandidate
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rows < out[j].Rows })
	return out
}

// selectBounded picks the plan for explicit bounds: the cheapest (minimum
// predicted latency) candidate predicted to satisfy every given bound; with
// only a time bound, the most accurate candidate within it. softBudget — the
// request deadline's remaining time, when one applies — prefers candidates
// that also fit the deadline but never causes a 422 by itself. It marks every
// candidate's Feasible flag, and returns an *UnsatisfiableBoundsError when no
// candidate satisfies the bounds.
func selectBounded(cands []candidate, b Bounds, softBudget time.Duration) (*candidate, error) {
	var pool, fitting []*candidate
	for i := range cands {
		c := &cands[i]
		if c.Feasible = b.admits(&c.PlanCandidate); !c.Feasible {
			continue
		}
		pool = append(pool, c)
		if softBudget > 0 && c.PredictedLatency <= softBudget {
			fitting = append(fitting, c)
		}
	}
	if len(pool) == 0 {
		return nil, unsatisfiable(cands, b)
	}
	if len(fitting) > 0 {
		pool = fitting
	}
	best := pool[0]
	for _, c := range pool[1:] {
		if b.ErrorBound > 0 {
			// Cheapest plan meeting the bounds; accuracy breaks ties.
			if c.PredictedLatency < best.PredictedLatency ||
				(c.PredictedLatency == best.PredictedLatency && c.PredictedError < best.PredictedError) {
				best = c
			}
		} else {
			// Time bound only: most accurate plan within it; cost breaks ties.
			if c.PredictedError < best.PredictedError ||
				(c.PredictedError == best.PredictedError && c.PredictedLatency < best.PredictedLatency) {
				best = c
			}
		}
	}
	return best, nil
}

// unsatisfiable reports the best achievable figures when nothing satisfies b:
// the smallest predicted error among the candidates within the time bound and
// the smallest latency among those within the error bound — each over all
// candidates when its bound alone already admits none.
func unsatisfiable(cands []candidate, b Bounds) *UnsatisfiableBoundsError {
	best := func(within Bounds) (float64, time.Duration) {
		e, l := math.Inf(1), time.Duration(math.MaxInt64)
		for i := range cands {
			c := &cands[i].PlanCandidate
			if !within.admits(c) {
				continue
			}
			if c.PredictedError < e {
				e = c.PredictedError
			}
			if c.PredictedLatency < l {
				l = c.PredictedLatency
			}
		}
		return e, l
	}
	e, l := best(Bounds{})
	unsat := &UnsatisfiableBoundsError{Bounds: b, BestError: e, BestLatency: l}
	if e, _ := best(Bounds{TimeBound: b.TimeBound}); !math.IsInf(e, 1) {
		unsat.BestError = e
	}
	if _, l := best(Bounds{ErrorBound: b.ErrorBound}); l != math.MaxInt64 {
		unsat.BestLatency = l
	}
	return unsat
}

// selectForDeadline picks the plan for the implicit-deadline path (a request
// deadline with no explicit bounds): the most accurate candidate whose
// predicted latency fits the remaining budget, falling back to the cheapest
// candidate when nothing fits — degradation always produces an answer. The
// second return reports whether the choice degraded below the full plan,
// cands[full].
func selectForDeadline(cands []candidate, full int, budget time.Duration) (*candidate, bool) {
	var best *candidate
	for i := range cands {
		c := &cands[i]
		if c.PredictedLatency > budget {
			continue
		}
		if best == nil ||
			c.PredictedError < best.PredictedError ||
			(c.PredictedError == best.PredictedError && len(c.Tables) > len(best.Tables)) ||
			(c.PredictedError == best.PredictedError && len(c.Tables) == len(best.Tables) && c.Rows < best.Rows) {
			best = c
		}
	}
	if best == nil {
		// Nothing fits: cheapest candidate, flagged degraded.
		best = &cands[0]
		for i := 1; i < len(cands); i++ {
			if cands[i].Rows < best.Rows {
				best = &cands[i]
			}
		}
		return best, true
	}
	return best, best != &cands[full]
}

// AchievedError estimates the answer's realized mean per-group relative
// error from its confidence intervals: half-width over |estimate|, capped at
// 1, worst aggregate per group, 0 for exact groups. This is the cheap online
// error estimate reported back as "achieved" — see docs/ACCURACY.md — and
// the cluster coordinator recomputes it over a merged partial result.
func AchievedError(res *engine.Result, ivs map[engine.GroupKey][]stats.Interval) float64 {
	if res.NumGroups() == 0 {
		return 0
	}
	var sum float64
	for _, k := range res.Keys() {
		g := res.Group(k)
		if g.Exact {
			continue
		}
		var worst float64
		for i, iv := range ivs[k] {
			half := iv.Width() / 2
			if half == 0 {
				continue
			}
			rel := 1.0
			if est := math.Abs(g.Vals[i]); est > 0 {
				rel = math.Min(1, half/est)
			}
			worst = math.Max(worst, rel)
		}
		sum += worst
	}
	return sum / float64(res.NumGroups())
}
