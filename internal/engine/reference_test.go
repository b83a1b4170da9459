package engine

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"dynsample/internal/randx"
)

// sampleFact is the table whose column holds src's weights.
func sampleFact(src Source) *Table {
	if db, ok := src.(*Database); ok {
		return db.Fact
	}
	return src.(*Table)
}

// flatten is the flat table of db's fact rows, weights included (nil adds
// none): a sample table of those rows, read as one table.
func flatten(db *Database, name string, rows []int, weights []float64) *Table {
	return db.FactSlice(name, rows, weights).Flat(name)
}

// rowValues returns the values of row i in schema order.
func rowValues(t *Table, i int) []Value {
	vals := make([]Value, len(t.Columns()))
	for j, c := range t.Columns() {
		vals[j] = c.Value(i)
	}
	return vals
}

// decodeKey unpacks a key the engine encoded, which is well-formed.
func decodeKey(k GroupKey) []Value {
	vals, err := DecodeKeyChecked(k)
	if err != nil {
		panic(err)
	}
	return vals
}

// naiveExecute is an independent, obviously-correct evaluator used as a
// reference: it materialises every row as values and aggregates with plain
// maps, sharing no code with the production executor.
func naiveExecute(src Source, allCols []string, q *Query, opt ExecOptions) map[string][]float64 {
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	out := make(map[string][]float64)
	n := src.NumRows()
	for row := 0; row < n; row++ {
		ok := true
		for _, p := range q.Where {
			acc, err := src.Accessor(p.Column())
			if err != nil {
				panic(err)
			}
			if !p.Matches(acc.Value(row)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		key := ""
		for _, g := range q.GroupBy {
			acc, _ := src.Accessor(g)
			key += "\x01" + acc.Value(row).String()
		}
		vals, exists := out[key]
		if !exists {
			vals = make([]float64, len(q.Aggs))
		}
		w := sampleFact(src).RowWeight(row) * scale
		for i, a := range q.Aggs {
			x := 1.0
			if a.Kind == Sum {
				acc, _ := src.Accessor(a.Col)
				x = acc.Float(row)
			}
			vals[i] += w * x
		}
		out[key] = vals
	}
	return out
}

// TestExecuteMatchesNaiveReference cross-checks the production executor
// against the naive evaluator over randomly generated databases, queries and
// weights.
func TestExecuteMatchesNaiveReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		n := 200 + rng.Intn(800)

		a := NewColumn("a", String)
		b := NewColumn("b", Int)
		c := NewColumn("c", Float)
		tbl := NewTable("t", a, b, c)
		za := randx.NewZipf(0.5+rng.Float64()*2, 2+rng.Intn(20))
		for i := 0; i < n; i++ {
			a.AppendString("v" + string(rune('a'+za.Index(rng.Float64())%26)))
			b.AppendInt(int64(rng.Intn(8)))
			c.AppendFloat(rng.NormFloat64() * 10)
			tbl.EndRow()
		}
		// Random weights.
		var weights []float64
		if rng.Intn(2) == 0 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 1 + rng.Float64()*9
			}
		}
		tbl.addWeights(weights)

		// Random query.
		q := &Query{Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Col: "c"}}}
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, "a")
		}
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, "b")
		}
		switch rng.Intn(3) {
		case 0:
			q.Where = append(q.Where, NewCmp("b", Ge, IntVal(int64(rng.Intn(8)))))
		case 1:
			q.Where = append(q.Where, NewIn("a", StringVal("va"), StringVal("vb"), StringVal("vc")))
		}
		opt := ExecOptions{}
		if rng.Intn(2) == 0 {
			opt.Scale = 1 + rng.Float64()*99
		}

		got, err := ExecuteCtx(context.Background(), tbl, q, opt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := naiveExecute(tbl, []string{"a", "b", "c"}, q, opt)
		if got.NumGroups() != len(want) {
			t.Logf("seed %d: %d groups vs naive %d", seed, got.NumGroups(), len(want))
			return false
		}
		for _, g := range got.Groups() {
			key := ""
			for _, v := range g.Key {
				key += "\x01" + v.String()
			}
			ref, ok := want[key]
			if !ok {
				t.Logf("seed %d: group %v absent from naive result", seed, g.Key)
				return false
			}
			for i := range g.Vals {
				if math.Abs(g.Vals[i]-ref[i]) > 1e-6*(1+math.Abs(ref[i])) {
					t.Logf("seed %d: group %v agg %d: %g vs naive %g", seed, g.Key, i, g.Vals[i], ref[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// referenceBound and referenceScanRange are the row-at-a-time scan the block
// kernel replaced, kept verbatim as its oracle: per-row accessor calls, boxed
// values, an encoded key and a string-keyed map probe per row.
type referenceBound struct {
	groupAccs []ColumnAccessor
	aggAccs   []ColumnAccessor
	preds     []referencePred
}

type referencePred struct {
	acc ColumnAccessor
	p   Predicate
}

func referenceBind(t testing.TB, src Source, q *Query) *referenceBound {
	t.Helper()
	b := &referenceBound{
		groupAccs: make([]ColumnAccessor, len(q.GroupBy)),
		aggAccs:   make([]ColumnAccessor, len(q.Aggs)),
		preds:     make([]referencePred, len(q.Where)),
	}
	accessor := func(col string) ColumnAccessor {
		acc, err := src.Accessor(col)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	for i, g := range q.GroupBy {
		b.groupAccs[i] = accessor(g)
	}
	for i, a := range q.Aggs {
		if a.Kind == Sum {
			b.aggAccs[i] = accessor(a.Col)
		}
	}
	for i, p := range q.Where {
		b.preds[i] = referencePred{acc: accessor(p.Column()), p: p}
	}
	return b
}

// referenceScanRange evaluates source rows [lo, hi) into res, which must have
// been built for the same query shape.
func referenceScanRange(res *Result, src Source, q *Query, bound *referenceBound, opt ExecOptions, scale float64, lo, hi int) {
	keyVals := make([]Value, len(q.GroupBy))
	keyBuf := make([]byte, 0, 64)

rows:
	for row := lo; row < hi; row++ {
		res.RowsScanned++
		for _, bp := range bound.preds {
			if !bp.p.Matches(bp.acc.Value(row)) {
				continue rows
			}
		}
		res.RowsMatched++

		for i, acc := range bound.groupAccs {
			keyVals[i] = acc.Value(row)
		}
		keyBuf = AppendKey(keyBuf[:0], keyVals)
		g, ok := res.groups[string(keyBuf)]
		if !ok {
			g = res.insert(string(keyBuf), append([]Value(nil), keyVals...))
		}

		w := sampleFact(src).RowWeight(row) * scale
		for i := range q.Aggs {
			x := 1.0
			if q.Aggs[i].Kind == Sum {
				x = bound.aggAccs[i].Float(row)
			}
			g.Vals[i] += w * x
			g.RawSum[i] += x
			g.RawSumSq[i] += x * x
			g.VarAcc[i] += w * (w - 1) * x * x
		}
		g.RawRows++
		if opt.MarkExact {
			g.Exact = true
		}
	}
}

// referenceExecute is ExecuteCtx as it was over referenceScanRange: one
// partial Result per ScanShardRows shard, folded in shard order.
func referenceExecute(t testing.TB, src Source, q *Query, opt ExecOptions) *Result {
	t.Helper()
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	bound := referenceBind(t, src, q)
	n := src.NumRows()
	if opt.MaxRows > 0 && opt.MaxRows < n {
		n = opt.MaxRows
	}
	var res *Result
	for lo := 0; lo < n; lo += ScanShardRows {
		part := NewResult(q.GroupBy, q.Aggs)
		referenceScanRange(part, src, q, bound, opt, scale, lo, min(lo+ScanShardRows, n))
		if res == nil {
			res = part
		} else {
			res.merge(part, true, nil)
		}
	}
	if res == nil {
		res = NewResult(q.GroupBy, q.Aggs)
	}
	return res
}

// executeRange runs the kernel over source rows [lo, hi) alone and
// materialises that range's groups — a shard partial as a Result, for the
// tests that merge ranges by hand.
func executeRange(src Source, q *Query, bound *boundQuery, opt ExecOptions, scale float64, lo, hi int) *Result {
	s := bound.newShardScan()
	s.scan(bound, scale, lo, hi)
	return bound.result(s.groups, opt.MarkExact)
}
