package core

import (
	"testing"

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

// FamilyTables is a flat family's small group tables in index order, then
// its overall sample.
func FamilyTables(p Prepared) []*engine.Table {
	sgp := p.(*smallGroupPrepared)
	return append(sgp.Tables(), sgp.Overall())
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
