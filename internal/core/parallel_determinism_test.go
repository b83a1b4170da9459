package core

import (
	"slices"
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
		g.AppendString("g" + itoa(zg.Draw(rng)))
		h.AppendString("h" + itoa(zh.Draw(rng)))
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

// AssertSlicesHoldBaseRows fails unless every small group table of p, read
// through its join, is db.Flatten of the base rows it holds, each with its
// mask: under the two-level hierarchy every row of db whose mask has the
// table's bit, with more levels the rows scan 2 draws over db (p must then
// be a build over db, or a copy of one). The overall sample is a draw: each
// of its rows, read through its join, must be a row of db with that row's
// mask.
func AssertSlicesHoldBaseRows(t *testing.T, p Prepared, db *engine.Database) {
	t.Helper()
	sgp := p.(*smallGroupPrepared)
	split, err := metaSplit(sgp.meta, db)
	if err != nil {
		t.Fatal(err)
	}
	n, width, words := db.NumRows(), sgp.meta.Width(), maskWords(sgp.meta.Width())
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
		rowMasks := make([]bitmask.Mask, len(rows[i]))
		for j, r := range rows[i] {
			rowMasks[j] = bitmask.FromWords(width, masks[r*words:(r+1)*words])
		}
		want := db.Flatten(s.name, rows[i], rowMasks, nil)
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
	maskOf := make(map[string][]uint64, n) // a view row's values -> its mask
	baseAccs := make([]engine.ColumnAccessor, len(cols))
	for r := range n {
		maskOf[rowKey(db, r, baseAccs)] = masks[r*words : (r+1)*words]
	}
	o := sgp.overall
	got, accs := o.src.Flat(o.name), make([]engine.ColumnAccessor, len(cols))
	for r := range got.NumRows() {
		want, ok := maskOf[rowKey(got, r, accs)]
		if !ok {
			t.Fatalf("%s row %d, read through its join, is no row of the base", o.name, r)
		}
		if m, _ := got.RowMask(r); width > 0 && !slices.Equal(m.Words(), want) {
			t.Fatalf("%s row %d has mask %x, its base row %x", o.name, r, m.Words(), want)
		}
	}
}
