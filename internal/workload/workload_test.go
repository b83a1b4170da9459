package workload

import (
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

func testDB(t *testing.T) *engine.Database {
	t.Helper()
	a := engine.NewColumn("a", engine.String)
	b := engine.NewColumn("b", engine.Int)
	c := engine.NewColumn("c", engine.String)
	u := engine.NewColumn("u", engine.Int) // near-unique: excluded
	m := engine.NewColumn("m", engine.Float)
	fact := engine.NewTable("fact", a, b, c, u, m)
	rng := randx.New(21)
	for i := 0; i < 2000; i++ {
		a.AppendString("a" + string(rune('0'+rng.Intn(8))))
		b.AppendInt(int64(rng.Intn(20)))
		c.AppendString("c" + string(rune('0'+rng.Intn(5))))
		u.AppendInt(int64(i))
		m.AppendFloat(rng.Float64() * 100)
		fact.EndRow()
	}
	return engine.MustNewDatabase("w", fact)
}

func TestEligibleColumnsExcludeUniqueAndMeasures(t *testing.T) {
	db := testDB(t)
	g, err := NewGenerator(db, Config{
		GroupingColumns: 2, Predicates: 1, Aggregate: engine.Sum,
		Measures: []string{"m"}, MaxDistinct: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cols []string
	for _, c := range g.cols {
		cols = append(cols, c.name)
	}
	for _, c := range cols {
		if c == "u" {
			t.Error("near-unique column u eligible")
		}
		if c == "m" {
			t.Error("measure column m eligible for grouping")
		}
	}
	if len(cols) != 3 {
		t.Errorf("eligible = %v, want [a b c]", cols)
	}
}

func TestQueryShape(t *testing.T) {
	db := testDB(t)
	g, err := NewGenerator(db, Config{
		GroupingColumns: 2, Predicates: 2, Aggregate: engine.Count, MaxDistinct: 100, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := g.Query()
		if len(q.GroupBy) != 2 {
			t.Fatalf("query %d: %d grouping columns", i, len(q.GroupBy))
		}
		if q.GroupBy[0] == q.GroupBy[1] {
			t.Fatalf("query %d: duplicate grouping column %q", i, q.GroupBy[0])
		}
		if len(q.Where) != 2 {
			t.Fatalf("query %d: %d predicates", i, len(q.Where))
		}
		if len(q.Aggs) != 1 || q.Aggs[0].Kind != engine.Count {
			t.Fatalf("query %d: aggs %v", i, q.Aggs)
		}
		if err := q.Validate(db); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
	}
}

func TestSumQueriesUseMeasures(t *testing.T) {
	db := testDB(t)
	g, err := NewGenerator(db, Config{
		GroupingColumns: 1, Aggregate: engine.Sum, Measures: []string{"m"}, MaxDistinct: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := g.Query()
	if q.Aggs[0].Kind != engine.Sum || q.Aggs[0].Col != "m" {
		t.Errorf("agg = %+v", q.Aggs[0])
	}
}

func TestPredicateSubsetSize(t *testing.T) {
	db := testDB(t)
	g, err := NewGenerator(db, Config{
		GroupingColumns: 1, Predicates: 1, Aggregate: engine.Count,
		MaxDistinct: 100, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]int{"a": 8, "b": 20, "c": 5}
	for i := 0; i < 100; i++ {
		q := g.Query()
		in := q.Where[0].(*engine.InPredicate)
		d := distinct[in.Col]
		k := len(in.Values())
		lo := int(predFracLo * float64(d))
		if lo < 1 {
			lo = 1
		}
		hi := int(predFracHi*float64(d)) + 1
		if k < lo || k > hi {
			t.Errorf("query %d: predicate on %s keeps %d of %d values, want within [%d,%d]", i, in.Col, k, d, lo, hi)
		}
	}
}

func TestQueriesDeterministic(t *testing.T) {
	db := testDB(t)
	mk := func() []*engine.Query {
		g, err := NewGenerator(db, Config{GroupingColumns: 2, Predicates: 1, Aggregate: engine.Count, MaxDistinct: 100, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return g.Queries(10)
	}
	qa, qb := mk(), mk()
	for i := range qa {
		if qa[i].String() != qb[i].String() {
			t.Fatalf("query %d differs:\n%s\n%s", i, qa[i], qb[i])
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	db := testDB(t)
	cases := []Config{
		{GroupingColumns: -1},
		{GroupingColumns: 1, Aggregate: engine.Sum},                             // no measures
		{GroupingColumns: 10, MaxDistinct: 100},                                 // not enough columns
		{GroupingColumns: 1, Measures: []string{"nope"}, Aggregate: engine.Sum}, // unknown measure
	}
	for i, cfg := range cases {
		if _, err := NewGenerator(db, cfg); err == nil {
			t.Errorf("config %d not rejected: %+v", i, cfg)
		}
	}
}

func TestQueriesExecutable(t *testing.T) {
	db := testDB(t)
	g, err := NewGenerator(db, Config{GroupingColumns: 2, Predicates: 2, Aggregate: engine.Count, MaxDistinct: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, q := range g.Queries(20) {
		res, err := engine.ExecuteExact(db, q)
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		if res.NumGroups() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 15 {
		t.Errorf("only %d of 20 queries matched any rows", nonEmpty)
	}
}
