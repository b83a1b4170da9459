package core_test

import (
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/scenario"
	"dynsample/internal/stats"
)

// TestRenormalizedMatchesFlatAnswers: a family stores its small group tables
// as fact slices joined to the base's dimension tables, the renormalized join
// synopses of §5.2.2. The same family with every slice flattened into a flat
// join synopsis (the layout before) answers bit for bit alike — groups,
// values, intervals and exact flags — on queries that group and filter on
// dimension columns.
func TestRenormalizedMatchesFlatAnswers(t *testing.T) {
	db, err := scenario.Builtin("tpch", 30000, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	slices := prepare(t, db, core.SmallGroupConfig{BaseRate: 0.02, Seed: 6})
	flat := core.FlatFamily(slices)

	queries := []*engine.Query{
		{GroupBy: []string{"p_brand"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}},
		{GroupBy: []string{"s_region", "l_returnflag"},
			Aggs:  []engine.Aggregate{{Kind: engine.Sum, Col: "l_extendedprice"}},
			Where: []engine.Predicate{engine.NewIn("c_region", engine.StringVal("c_region_000"))}},
		{GroupBy: []string{"o_orderpriority"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}},
	}
	sliced := 0 // small group tables read
	for qi, q := range queries {
		want, err := flat.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := slices.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		sliced += len(got.Rewrite.Steps) - 1
		ivs := make(map[engine.GroupKey][]stats.Interval)
		for _, k := range want.Result.Keys() {
			for i := range q.Aggs {
				ivs[k] = append(ivs[k], want.Interval(k, i))
			}
		}
		if err := sameAnswer(got, want.Result, ivs); err != nil {
			t.Errorf("query %d (%s): %v", qi, q, err)
		}
	}
	if sliced == 0 {
		t.Fatal("no query reads a small group table")
	}
}

// TestRenormalizedSavesSpaceOnWideSchema: on the wide sales schema the fact
// slices hold the same rows as the flat join synopses in less space.
func TestRenormalizedSavesSpaceOnWideSchema(t *testing.T) {
	db, err := scenario.Builtin("sales", 20000, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	ren := prepare(t, db, core.SmallGroupConfig{BaseRate: 0.01, Seed: 8})
	flat := core.FlatFamily(ren)
	if flat.SampleRows() != ren.SampleRows() {
		t.Fatalf("sample rows differ: %d vs %d", flat.SampleRows(), ren.SampleRows())
	}
	fb, rb := flat.SampleBytes(), ren.SampleBytes()
	if rb >= fb {
		t.Errorf("fact slices (%d bytes) not smaller than flat tables (%d bytes)", rb, fb)
	}
	t.Logf("flat %d bytes, fact slices %d bytes (%.1fx smaller)", fb, rb, float64(fb)/float64(rb))
}

// TestRenormalizerSharedDims: fact slices join the base's own dimension
// tables — every slice the same table objects, nothing copied — and read
// every view column as the base does, row for row.
func TestRenormalizerSharedDims(t *testing.T) {
	db, err := scenario.Builtin("tpch", 5000, 1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	rowsA := []int{0, 10, 20, 30}
	rowsB := []int{5, 10, 4999}
	a, b := db.FactSlice("a", rowsA, nil), db.FactSlice("b", rowsB, nil)
	for d := range db.Dims {
		if a.Dims[d].Table != db.Dims[d].Table || b.Dims[d].Table != db.Dims[d].Table {
			t.Errorf("dimension %d is not the base's", d)
		}
	}
	for _, col := range []string{"p_brand", "s_region", "l_quantity"} {
		base, _ := db.Accessor(col)
		sl, err := a.Accessor(col)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rowsA {
			if sl.Value(i) != base.Value(row) {
				t.Errorf("column %s row %d: %v vs base %v", col, i, sl.Value(i), base.Value(row))
			}
		}
	}
	// A family's small group tables are such slices: their dimension
	// columns cost no sample space.
	p := prepare(t, db, core.SmallGroupConfig{BaseRate: 0.02, Seed: 3})
	flat := core.FlatFamily(p)
	if p.SampleBytes() >= flat.SampleBytes() {
		t.Errorf("the family takes %d bytes, its flat copy %d", p.SampleBytes(), flat.SampleBytes())
	}
}

// prepare runs small group pre-processing on db.
func prepare(t testing.TB, db *engine.Database, cfg core.SmallGroupConfig) core.Prepared {
	t.Helper()
	p, err := core.NewSmallGroup(cfg).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
