package engine

import (
	"fmt"
	"sort"
	"strings"
)

// Group is one group of a query answer with its aggregate accumulators.
type Group struct {
	// Key holds the group-by values, in the query's GroupBy order.
	Key []Value
	// Vals holds the (scaled, weighted) aggregate values, one per query
	// aggregate. These are additive across partial results.
	Vals []float64
	// RawRows is the number of unweighted source rows that contributed.
	RawRows int64
	// RawSum and RawSumSq accumulate, per aggregate, the unscaled per-row
	// contributions and their squares (x=1 for COUNT, x=measure for SUM).
	RawSum   []float64
	RawSumSq []float64
	// VarAcc accumulates, per aggregate, the Horvitz-Thompson variance
	// estimate Σ w·(w−1)·x² where w is the row's total weight (per-row
	// weight × scale). Rows stored at rate 100% (w=1) contribute zero, so
	// exact groups automatically carry zero sampling variance.
	VarAcc []float64
	// Exact marks groups whose aggregate is known exactly (answered entirely
	// from small group tables); see §4.2.2: "Answers for groups that result
	// from querying small group tables are marked as being exact".
	Exact bool
}

// Result is the (exact or partial) answer to a Query over one Source.
type Result struct {
	GroupBy []string
	Aggs    []Aggregate

	groups map[string]*Group // keyed by GroupKey bytes

	// RowsScanned counts source rows that survived the bitmask filter;
	// RowsMatched additionally satisfied the predicates. RowsScanned is the
	// effective sample size used for confidence intervals.
	RowsScanned int64
	RowsMatched int64
}

// NewResult returns an empty result for the given query shape.
func NewResult(groupBy []string, aggs []Aggregate) *Result {
	return &Result{GroupBy: groupBy, Aggs: aggs, groups: make(map[string]*Group)}
}

// NumGroups returns the number of groups in the result.
func (r *Result) NumGroups() int { return len(r.groups) }

// Group returns the group with the given key, or nil.
func (r *Result) Group(key GroupKey) *Group { return r.groups[string(key)] }

// Upsert returns the group for key, creating it (with the given key values)
// if needed.
func (r *Result) Upsert(key GroupKey, keyVals func() []Value) *Group {
	g, ok := r.groups[string(key)]
	if !ok {
		g = r.insert(string(key), keyVals())
	}
	return g
}

func (r *Result) insert(key string, keyVals []Value) *Group {
	// One backing array for the four per-aggregate accumulators.
	n := len(r.Aggs)
	acc := make([]float64, 4*n)
	g := &Group{
		Key:      keyVals,
		Vals:     acc[0:n:n],
		RawSum:   acc[n : 2*n : 2*n],
		RawSumSq: acc[2*n : 3*n : 3*n],
		VarAcc:   acc[3*n : 4*n : 4*n],
	}
	r.groups[key] = g
	return g
}

// Keys returns all group keys in deterministic (sorted) order.
func (r *Result) Keys() []GroupKey {
	keys := make([]GroupKey, 0, len(r.groups))
	for k := range r.groups {
		keys = append(keys, GroupKey(k))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Groups returns the groups ordered by key.
func (r *Result) Groups() []*Group {
	keys := r.Keys()
	out := make([]*Group, len(keys))
	for i, k := range keys {
		out[i] = r.groups[string(k)]
	}
	return out
}

// Merge adds all groups of other into r. The query shapes must match. A group
// present in both is summed; Exact is kept only if both parts are exact (a
// group fed by both a small group table and the overall sample is estimated,
// not exact).
//
// Merge is the combination step of every partitioned execution path: shard
// partials of one scan, the UNION ALL branches of a rewrite plan, and both at
// once. All accumulators (Vals, RawSum, RawSumSq, VarAcc, RawRows) are
// additive, so merging is exact for COUNT and SUM, and AVG — which the
// middleware derives as SUM/COUNT from two aggregates of the same query —
// recombines correctly because its (sum, count) pair is merged componentwise
// before the division happens. Merging partial results in a fixed order
// yields bit-identical floats regardless of which goroutines produced them.
//
// Merge mutates r only; callers parallelising execution must merge on a
// single goroutine (or otherwise serialise calls).
func (r *Result) Merge(other *Result) error {
	if err := r.sameShape(other); err != nil {
		return err
	}
	r.merge(other, false)
	return nil
}

// Consume is Merge for a partial the caller owns and is done with: groups
// new to r move over instead of being copied, so other must not be used
// afterwards. The sums, and the order they are added in, are Merge's.
func (r *Result) Consume(other *Result) error {
	if err := r.sameShape(other); err != nil {
		return err
	}
	r.merge(other, true)
	return nil
}

func (r *Result) sameShape(other *Result) error {
	if len(r.Aggs) != len(other.Aggs) {
		return fmt.Errorf("engine: merging results with %d vs %d aggregates", len(r.Aggs), len(other.Aggs))
	}
	if len(r.GroupBy) != len(other.GroupBy) {
		return fmt.Errorf("engine: merging results grouped by %d vs %d columns", len(r.GroupBy), len(other.GroupBy))
	}
	for i := range r.GroupBy {
		if r.GroupBy[i] != other.GroupBy[i] {
			return fmt.Errorf("engine: merging results grouped by %v vs %v", r.GroupBy, other.GroupBy)
		}
	}
	return nil
}

// merge is Merge without the shape checks; adopt is Consume's move.
func (r *Result) merge(other *Result, adopt bool) {
	for k, og := range other.groups {
		g, ok := r.groups[k]
		if !ok {
			if !adopt {
				cp := *og
				cp.Vals = append([]float64(nil), og.Vals...)
				cp.RawSum = append([]float64(nil), og.RawSum...)
				cp.RawSumSq = append([]float64(nil), og.RawSumSq...)
				cp.VarAcc = append([]float64(nil), og.VarAcc...)
				og = &cp
			}
			r.groups[k] = og
			continue
		}
		for i := range g.Vals {
			g.Vals[i] += og.Vals[i]
			g.RawSum[i] += og.RawSum[i]
			g.RawSumSq[i] += og.RawSumSq[i]
			g.VarAcc[i] += og.VarAcc[i]
		}
		g.RawRows += og.RawRows
		g.Exact = g.Exact && og.Exact
	}
	r.RowsScanned += other.RowsScanned
	r.RowsMatched += other.RowsMatched
}

// String renders the result as a small fixed-width table, for examples and
// the CLI.
func (r *Result) String() string {
	var sb strings.Builder
	for _, g := range r.GroupBy {
		fmt.Fprintf(&sb, "%-18s", g)
	}
	for _, a := range r.Aggs {
		fmt.Fprintf(&sb, "%18s", a.String())
	}
	sb.WriteByte('\n')
	for _, g := range r.Groups() {
		for _, v := range g.Key {
			fmt.Fprintf(&sb, "%-18s", v.String())
		}
		for _, v := range g.Vals {
			fmt.Fprintf(&sb, "%18.2f", v)
		}
		if g.Exact {
			sb.WriteString("  (exact)")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
