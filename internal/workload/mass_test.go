package workload

import (
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// skewedTestDB builds a table whose column values are heavily skewed, where
// value-count predicate construction and mass-calibrated construction
// diverge sharply.
func skewedTestDB(t *testing.T) *engine.Database {
	t.Helper()
	g := engine.NewColumn("g", engine.Int)
	h := engine.NewColumn("h", engine.String)
	fact := engine.NewTable("fact", g, h)
	rng := randx.New(9)
	zi := randx.NewZipf(2.0, 200)
	zs := randx.NewZipf(1.8, 80)
	for i := 0; i < 30000; i++ {
		g.AppendInt(int64(zi.Index(rng.Float64())))
		h.AppendString("h" + itoa(zs.Index(rng.Float64())))
		fact.EndRow()
	}
	return engine.MustNewDatabase("skew", fact)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestMassSelectivityHitsTarget(t *testing.T) {
	db := skewedTestDB(t)
	g, err := NewGenerator(db, Config{
		GroupingColumns: 1,
		Predicates:      1,
		Aggregate:       engine.Count,
		MassSelectivity: true,
		MaxDistinct:     1000,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range g.Queries(30) {
		res, err := engine.ExecuteExact(db, q)
		if err != nil {
			t.Fatal(err)
		}
		sel := float64(res.RowsMatched) / float64(db.NumRows())
		// Value accumulation overshoots by at most one value's mass; the
		// dominant value can carry ~60% on this data, so allow
		// [predFracLo, 0.95].
		if sel < predFracLo || sel > 0.95 {
			t.Errorf("query %d selectivity %.4f outside calibrated band", i, sel)
		}
	}
}

func TestMassSelectivitySplitsAcrossPredicates(t *testing.T) {
	db := skewedTestDB(t)
	g, err := NewGenerator(db, Config{
		GroupingColumns: 1,
		Predicates:      2,
		Aggregate:       engine.Count,
		MassSelectivity: true,
		MaxDistinct:     1000,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	low, ok := 0, 0
	for _, q := range g.Queries(30) {
		if len(q.Where) != 2 {
			t.Fatalf("predicates = %d", len(q.Where))
		}
		res, err := engine.ExecuteExact(db, q)
		if err != nil {
			t.Fatal(err)
		}
		sel := float64(res.RowsMatched) / float64(db.NumRows())
		// Independent columns: the two square-root predicates compound to
		// roughly the drawn total, at least predFracLo, give or take
		// correlation noise and per-value granularity.
		if sel >= 0.02 {
			ok++
		} else {
			low++
		}
	}
	if ok < low {
		t.Errorf("most queries far below the calibrated selectivity: %d ok vs %d low", ok, low)
	}
}

func TestLiteralConstructionStillAvailable(t *testing.T) {
	// With MassSelectivity false (the paper's literal construction) the
	// predicate size in VALUES must respect the fraction bounds even though
	// the effective selectivity may be tiny.
	db := skewedTestDB(t)
	g, err := NewGenerator(db, Config{
		GroupingColumns: 1,
		Predicates:      1,
		Aggregate:       engine.Count,
		MaxDistinct:     1000,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := g.Query()
		in := q.Where[0].(*engine.InPredicate)
		d := 0
		for _, c := range g.cols {
			if c.name == in.Col {
				d = len(c.values)
			}
		}
		lo, hi := max(1, int(predFracLo*float64(d))), max(1, int(predFracHi*float64(d)))
		if k := len(in.Values()); k < lo || k > hi {
			t.Errorf("query %d: predicate keeps %d of %d values, want within [%d, %d]", i, k, d, lo, hi)
		}
	}
}
