package core

import (
	"context"
	"math"
	"testing"

	"dynsample/internal/bitmask"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// ZipfDB is a fact-only database of the given rows: two zipf string columns
// and a normal measure. TestAnswerWorkerCountDeterminism takes more rows than
// two scan shards, so that the partitioned scan kernel splits it;
// TestPreprocessWorkerCountDeterminism takes it at a shard's edges.
func ZipfDB(rows int) *engine.Database {
	g := engine.NewColumn("g", engine.String)
	h := engine.NewColumn("h", engine.String)
	m := engine.NewColumn("m", engine.Float)
	fact := engine.NewTable("fact", g, h, m)
	rng := randx.New(17)
	zg := randx.NewZipf(1.8, 120)
	zh := randx.NewZipf(1.2, 40)
	for i := 0; i < rows; i++ {
		g.AppendString("g" + itoa(zg.Index(rng.Float64())))
		h.AppendString("h" + itoa(zh.Index(rng.Float64())))
		m.AppendFloat(rng.NormFloat64() * 50)
		fact.EndRow()
	}
	return engine.MustNewDatabase("det", fact)
}

// FamilyTables is a family's small group tables in index order, then its
// overall sample, each fact slice flattened through its join: the flat join
// synopses the family's rows make.
func FamilyTables(p Prepared) []*engine.Table {
	var out []*engine.Table
	for _, s := range p.(*smallGroupPrepared).samples() {
		out = append(out, s.src.Flat(s.name))
	}
	return out
}

// FlatFamily is a copy of p that stores every sample table as a flat join
// synopsis, the layout before fact slices: the same rows, answered without a
// join.
func FlatFamily(p Prepared) Prepared {
	cp := *p.(*smallGroupPrepared)
	flat := FamilyTables(p)
	cp.tables = make([]sampleSource, len(cp.tables))
	for i, s := range cp.samples() {
		*s = sampleSource{src: engine.MustNewDatabase(flat[i].Name, flat[i]), name: flat[i].Name}
	}
	return &cp
}

func prepare(t *testing.T, db *engine.Database, workers int) *smallGroupPrepared {
	t.Helper()
	p, err := NewSmallGroup(SmallGroupConfig{BaseRate: 0.02, Seed: 5, Workers: workers}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*smallGroupPrepared)
}

// Runtime answers must be bit-identical between workers=1 and workers=N for
// a fixed seed: same groups, same float accumulators, same intervals, same
// exactness flags.
func TestAnswerWorkerCountDeterminism(t *testing.T) {
	db := ZipfDB(2*engine.ScanShardRows + 999)
	p1 := prepare(t, db, 1)
	queries := []*engine.Query{
		{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}},
		{GroupBy: []string{"g", "h"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}},
		{GroupBy: []string{"h"}, Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "m"}},
			Where: []engine.Predicate{engine.NewIn("g", engine.StringVal("g1"), engine.StringVal("g2"), engine.StringVal("g40"))}},
	}
	for _, workers := range []int{2, 8, 32} {
		pn := prepare(t, db, workers)
		for qi, q := range queries {
			a1, err := p1.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			an, err := pn.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			r1, rn := a1.Result, an.Result
			if r1.NumGroups() != rn.NumGroups() || r1.RowsScanned != rn.RowsScanned {
				t.Fatalf("query %d workers=%d: shape diverged", qi, workers)
			}
			for _, k := range r1.Keys() {
				g1, gn := r1.Group(k), rn.Group(k)
				if gn == nil {
					t.Fatalf("query %d workers=%d: group %q missing", qi, workers, k)
				}
				if g1.Exact != gn.Exact {
					t.Fatalf("query %d workers=%d group %q: exactness diverged", qi, workers, k)
				}
				for i := range g1.Vals {
					if g1.Vals[i] != gn.Vals[i] || g1.VarAcc[i] != gn.VarAcc[i] {
						t.Fatalf("query %d workers=%d group %q agg %d: not bit-identical (%v vs %v)",
							qi, workers, k, i, g1.Vals[i], gn.Vals[i])
					}
				}
				iv1, ivn := a1.Interval(k, 0), an.Interval(k, 0)
				if iv1 != ivn {
					t.Fatalf("query %d workers=%d group %q: interval diverged", qi, workers, k)
				}
			}
		}
	}
}

// OnlineState returns o's newest maintained sample state and the database
// version it covers.
func OnlineState(o *Online) (Prepared, *engine.Database) { return o.p, o.app.DB() }

// AssertSlicesHoldBaseRows fails unless every small group table of p, read
// through its join, is the flat table of a fact slice of the base rows it
// holds (db.FactSlice, then Flat): under the
// two-level hierarchy every row of db in the table's domain, with more levels
// the rows scan 2 draws over db (p must then be a build over db, or a copy of
// one); and every row of a table lies in its domain (Metadata.holds). The
// overall sample is a draw: each of its rows, read through its join, must be
// a row of db.
func AssertSlicesHoldBaseRows(t *testing.T, p Prepared, db *engine.Database) {
	t.Helper()
	sgp := p.(*smallGroupPrepared)
	meta := sgp.meta
	split, err := metaSplit(meta, db)
	if err != nil {
		t.Fatal(err)
	}
	n, width, words := db.NumRows(), meta.Width(), maskWords(meta.Width())
	masks := make([]uint64, n*words)
	split.masks(0, n, masks)
	rows := make([][]int, width)
	if len(sgp.cfg.Levels) > 1 {
		counted, err := countBands(db, sgp.cfg)
		if err != nil {
			t.Fatal(err)
		}
		drawn, err := counted.classify(db, sgp.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows = drawn.tables
	} else {
		for r := range n {
			eachBit(masks[r*words:(r+1)*words], func(i int) { rows[i] = append(rows[i], r) })
		}
	}
	for i, s := range sgp.tables {
		want := db.FactSlice(s.name, rows[i], nil).Flat(s.name)
		got := s.src.Flat(s.name)
		if got.NumRows() != want.NumRows() {
			t.Fatalf("%s holds %d rows, the base %d", s.name, got.NumRows(), want.NumRows())
		}
		for _, wc := range want.Columns() {
			gc := got.Column(wc.Name)
			if gc == nil {
				t.Fatalf("%s has no column %s", s.name, wc.Name)
			}
			for r := range want.NumRows() {
				if gc.Value(r) != wc.Value(r) {
					t.Fatalf("%s row %d column %s: %v, the base row %d holds %v", s.name, r, wc.Name, gc.Value(r), rows[i][r], wc.Value(r))
				}
			}
		}
		var cols []string
		if single := meta.Columns(); i < len(single) {
			cols = []string{single[i].Column}
		} else {
			cols = meta.Pairs()[i-len(single)].Cols[:]
		}
		c0, c1 := got.Column(cols[0]), got.Column(cols[len(cols)-1])
		for r := range got.NumRows() {
			if !meta.holds(i, c0.Value(r), c1.Value(r)) {
				t.Fatalf("%s row %d (%v) lies outside the table's domain", s.name, r, rowValues(got, r))
			}
		}
	}

	cols := db.Columns()
	rowKey := func(src engine.Source, r int, accs []engine.ColumnAccessor) string {
		vals := make([]engine.Value, len(cols))
		for j, c := range cols {
			if accs[j] == nil {
				var err error
				if accs[j], err = src.Accessor(c); err != nil {
					t.Fatal(err)
				}
			}
			vals[j] = accs[j].Value(r)
		}
		return string(engine.EncodeKey(vals))
	}
	base := make(map[string]bool, n)
	baseAccs := make([]engine.ColumnAccessor, len(cols))
	for r := range n {
		base[rowKey(db, r, baseAccs)] = true
	}
	o := sgp.overall
	got, accs := o.src.Flat(o.name), make([]engine.ColumnAccessor, len(cols))
	for r := range got.NumRows() {
		if !base[rowKey(got, r, accs)] {
			t.Fatalf("%s row %d, read through its join, is no row of the base", o.name, r)
		}
	}
}

// AssertExclusionMatchesRowFilter holds the plan every query gets from p
// (Plan) to the paper's row-level rewrite, bit for bit: for each step the
// oracle takes the rows of the step's source it scans (the first MaxRows),
// computes their membership masks with the family's classifier (metaSplit),
// keeps the rows that pass "bitmask & m = 0" for the step's m, and scans a
// fact slice of those rows, weights included, merging the partials in step
// order. Values, raw sums and squares, variance accumulators and row counts
// must match ExecutePlanCtx's. Under the two-level
// hierarchy the answer's exact flags must mark the groups a small group
// table's step contributed. It fails, too, when a family with tables drops
// no group over all of queries: the comparison would prove nothing.
func AssertExclusionMatchesRowFilter(t *testing.T, p Prepared, queries []*engine.Query) {
	t.Helper()
	sgp := p.(*smallGroupPrepared)
	width, words := sgp.meta.Width(), maskWords(sgp.meta.Width())
	dropped := 0
	// passes is the paper's "bitmask & m = 0" for row r of a slab of masks,
	// read bit by bit.
	passes := func(slab []uint64, r int, m bitmask.Mask) bool {
		for _, b := range m.Bits() {
			if slab[r*words+b/64]>>(b%64)&1 != 0 {
				return false
			}
		}
		return true
	}
	for qi, q := range queries {
		plan := sgp.Plan(q)
		want := engine.NewResult(q.GroupBy, q.Aggs)
		fromTable := map[engine.GroupKey]bool{}
		for j, st := range plan.Steps {
			flat := st.Source.(*engine.Database).Flat(st.Name)
			flatDB := engine.MustNewDatabase(st.Name, flat)
			split, err := metaSplit(sgp.meta, flatDB)
			if err != nil {
				t.Fatal(err)
			}
			n := flatDB.NumRows()
			if st.MaxRows > 0 && st.MaxRows < n {
				n = st.MaxRows
			}
			slab := make([]uint64, n*words)
			split.masks(0, n, slab)
			var kept []int
			var weights []float64
			for r := range n {
				if passes(slab, r, st.Exclude) {
					kept = append(kept, r)
					weights = append(weights, flat.RowWeight(r))
				}
			}
			if flat.Column(engine.WeightColumn) == nil {
				weights = nil
			}
			view := make([]*engine.Column, 0, flat.NumCols())
			for _, c := range flatDB.Columns() {
				view = append(view, flat.Column(c))
			}
			rows := engine.MustNewDatabase(st.Name, engine.NewTable(st.Name, view...)).FactSlice(st.Name, kept, weights)
			part, err := engine.ExecuteCtx(context.Background(), rows, q, engine.ExecOptions{
				Scale: st.Scale, MarkExact: st.MarkExact, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range part.Keys() {
				fromTable[k] = fromTable[k] || j < len(plan.Steps)-1
			}
			if err := want.Merge(part); err != nil {
				t.Fatal(err)
			}
			if j > 0 { // what the owner rule drops from the unfiltered partial
				whole, err := engine.ExecuteCtx(context.Background(), st.Source, q, engine.ExecOptions{Scale: st.Scale, MaxRows: st.MaxRows, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				dropped += whole.NumGroups() - part.NumGroups()
			}
		}
		got, _, err := ExecutePlanCtx(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumGroups() != want.NumGroups() {
			t.Fatalf("query %d (%s): %d groups, the row filter %d", qi, q, got.NumGroups(), want.NumGroups())
		}
		for _, k := range want.Keys() {
			w, g := want.Group(k), got.Group(k)
			if g == nil {
				t.Fatalf("query %d (%s): group %q missing", qi, q, k)
			}
			same := g.RawRows == w.RawRows
			for i := range w.Vals {
				same = same && math.Float64bits(g.Vals[i]) == math.Float64bits(w.Vals[i]) &&
					math.Float64bits(g.RawSum[i]) == math.Float64bits(w.RawSum[i]) &&
					math.Float64bits(g.RawSumSq[i]) == math.Float64bits(w.RawSumSq[i]) &&
					math.Float64bits(g.VarAcc[i]) == math.Float64bits(w.VarAcc[i])
			}
			if !same {
				t.Fatalf("query %d (%s) group %q: %+v, the row filter %+v", qi, q, k, *g, *w)
			}
		}
		if len(sgp.cfg.Levels) > 1 {
			continue // a medium band's groups are estimates, whoever else holds them
		}
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ans.Result.Keys() {
			if ans.Result.Group(k).Exact != fromTable[k] {
				t.Fatalf("query %d (%s) group %q: exact %v, a table's step contributed it: %v", qi, q, k, ans.Result.Group(k).Exact, fromTable[k])
			}
		}
	}
	if width > 0 && dropped == 0 {
		t.Fatal("no query dropped a group: the comparison holds nothing")
	}
}
