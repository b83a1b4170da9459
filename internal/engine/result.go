package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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

	// A scan's Result holds its groups as the scan's table left them (tbl):
	// integer keys and accumulator slabs, nothing boxed. groups — boxed key
	// Values, encoded key strings, the map keyed by GroupKey bytes — is built
	// from tbl by the first method that needs a Group (index); a Result built
	// by hand has it from the start. n counts the groups in either form.
	mu     sync.Mutex // index's: readers may share a Result
	tbl    *groupTable
	groups map[string]*Group
	n      int

	// RowsScanned counts the source rows the scan read; RowsMatched counts
	// those that also satisfied the predicates. Merging adds both up.
	RowsScanned int64
	RowsMatched int64
}

// NewResult returns an empty result for the given query shape.
func NewResult(groupBy []string, aggs []Aggregate) *Result {
	return &Result{GroupBy: groupBy, Aggs: aggs, groups: make(map[string]*Group)}
}

// NumGroups returns the number of groups in the result.
func (r *Result) NumGroups() int { return r.n }

// index returns the groups by key, building them from the scan's table the
// first time (n stays what it is: the table's groups are all new to the map).
func (r *Result) index() map[string]*Group {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.tbl; t != nil {
		r.tbl, r.groups = nil, nil
		r.absorb(t, true, nil)
	}
	return r.groups
}

// Group returns the group with the given key, or nil.
func (r *Result) Group(key GroupKey) *Group { return r.index()[string(key)] }

// Upsert returns the group for key, creating it (with the given key values)
// if needed.
func (r *Result) Upsert(key GroupKey, keyVals func() []Value) *Group {
	g, ok := r.index()[string(key)]
	if !ok {
		g = r.insert(string(key), keyVals())
	}
	return g
}

func (r *Result) insert(key string, keyVals []Value) *Group {
	// One backing array for the four per-aggregate accumulators.
	n := len(r.Aggs)
	g := &Group{Key: keyVals}
	g.window(make([]float64, 4*n), n)
	r.groups[key] = g
	r.n++
	return g
}

// window makes acc, four runs of n floats, the group's accumulators.
func (g *Group) window(acc []float64, n int) {
	g.Vals, g.RawSum, g.RawSumSq, g.VarAcc = acc[0:n:n], acc[n:2*n:2*n], acc[2*n:3*n:3*n], acc[3*n:4*n:4*n]
}

// add sums og into g, as Merge does for a group both sides have.
func (g *Group) add(og *Group) {
	for i := range g.Vals {
		g.Vals[i] += og.Vals[i]
		g.RawSum[i] += og.RawSum[i]
		g.RawSumSq[i] += og.RawSumSq[i]
		g.VarAcc[i] += og.VarAcc[i]
	}
	g.RawRows += og.RawRows
	g.Exact = g.Exact && og.Exact
}

// absorb merges the groups of a scan's table that keep passes (every one when
// keep is nil) into the index: the ones it has are summed, the others built —
// boxed key, key string, Group, one slab of each for all of them — over t's
// own accumulators when adopt says t is r's to keep, over a copy otherwise.
// It returns how many it built.
func (r *Result) absorb(t *groupTable, adopt bool, keep func(key []Value) bool) int {
	k, na := len(r.GroupBy), len(r.Aggs)
	if len(r.groups) == 0 {
		r.groups = make(map[string]*Group, t.n)
	}
	vals, enc := make([]Value, 0, t.n*k), make([]byte, 0, t.n*16*max(k, 1))
	fresh, ends := make([]int32, 0, t.n), make([]int, 0, t.n)
	for g := 0; g < t.n; g++ {
		var rem uint64
		for i := range t.cols {
			vals = append(vals, t.cols[i].value(t.key(g), &rem))
		}
		if keep != nil && !keep(vals[len(vals)-k:]) {
			vals = vals[:len(vals)-k]
			continue
		}
		start := len(enc)
		enc = AppendKey(enc, vals[len(vals)-k:])
		if have := r.groups[string(enc[start:])]; have != nil {
			og := Group{RawRows: int64(*t.rawRows(g)), Exact: t.exact}
			og.window(t.sums(g), na)
			have.add(&og)
			vals, enc = vals[:len(vals)-k], enc[:start]
			continue
		}
		fresh, ends = append(fresh, int32(g)), append(ends, len(enc))
	}
	groups := make([]Group, len(fresh))
	var accs []float64
	if !adopt {
		accs = make([]float64, len(fresh)*4*na)
	}
	all, start := string(enc), 0
	for i, g := range fresh {
		og := &groups[i]
		*og = Group{RawRows: int64(*t.rawRows(int(g))), Exact: t.exact}
		if k > 0 {
			og.Key = vals[i*k : (i+1)*k : (i+1)*k]
		}
		acc := t.sums(int(g))
		if !adopt {
			acc = accs[i*4*na : (i+1)*4*na]
			copy(acc, t.sums(int(g)))
		}
		og.window(acc, na)
		r.groups[all[start:ends[i]]] = og
		start = ends[i]
	}
	return len(fresh)
}

// Keys returns all group keys in deterministic (sorted) order.
func (r *Result) Keys() []GroupKey {
	groups := r.index()
	keys := make([]GroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, GroupKey(k))
	}
	slices.Sort(keys)
	return keys
}

// Each calls f on every group in no set order: for a pass whose outcome does
// not depend on the order, it skips the sort Keys and Groups pay.
func (r *Result) Each(f func(key GroupKey, g *Group)) {
	for k, g := range r.index() {
		f(GroupKey(k), g)
	}
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
	r.merge(other, false, nil)
	return nil
}

// ConsumeKeeping is Merge for a partial the caller owns and is done with,
// of only the groups of other whose key keep passes; a nil keep passes every
// group. Groups new to r move over instead of being copied, so other must
// not be used afterwards. The groups it drops add nothing; the sums of the
// rest, and the order they are added in, are Merge's. Rows and matches are
// counted whole.
func (r *Result) ConsumeKeeping(other *Result, keep func(key []Value) bool) error {
	if err := r.sameShape(other); err != nil {
		return err
	}
	r.merge(other, true, keep)
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

// merge is Merge without the shape checks; adopt is ConsumeKeeping's move,
// keep its test. A scan's partial is merged from its table, without
// an index of its own — and moved into an empty r as it stands when every
// group is kept.
func (r *Result) merge(other *Result, adopt bool, keep func(key []Value) bool) {
	r.RowsScanned += other.RowsScanned
	r.RowsMatched += other.RowsMatched
	other.mu.Lock()
	t := other.tbl
	other.mu.Unlock()
	if t != nil && adopt && keep == nil && r.n == 0 {
		r.tbl, r.n = t, t.n
		return
	}
	groups := r.index()
	if t != nil {
		r.n += r.absorb(t, adopt, keep)
		return
	}
	for k, og := range other.groups {
		if keep != nil && !keep(og.Key) {
			continue
		}
		g, ok := groups[k]
		if ok {
			g.add(og)
			continue
		}
		if !adopt {
			cp := *og
			cp.Vals = append([]float64(nil), og.Vals...)
			cp.RawSum = append([]float64(nil), og.RawSum...)
			cp.RawSumSq = append([]float64(nil), og.RawSumSq...)
			cp.VarAcc = append([]float64(nil), og.VarAcc...)
			og = &cp
		}
		groups[k] = og
		r.n++
	}
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
