package core

import (
	"math"
	"strings"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// skewedDB builds a single-table database with a controlled distribution:
//
//	a: 80% "A0", 15% "A1", 5% spread evenly over "A2".."A11" (rare values)
//	b: uniform over "B0".."B3"
//	m: measure, deterministic value (row % 97) + 1
//	u: unique per row (forces the τ cutoff when τ is small)
func skewedDB(t testing.TB, n int) *engine.Database {
	t.Helper()
	a := engine.NewColumn("a", engine.String)
	b := engine.NewColumn("b", engine.String)
	m := engine.NewColumn("m", engine.Int)
	u := engine.NewColumn("u", engine.Int)
	fact := engine.NewTable("fact", a, b, m, u)
	rng := randx.New(1234)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.80:
			a.AppendString("A0")
		case r < 0.95:
			a.AppendString("A1")
		default:
			a.AppendString("A" + string(rune('2'+rng.Intn(10))))
		}
		b.AppendString("B" + string(rune('0'+rng.Intn(4))))
		m.AppendInt(int64(i%97) + 1)
		u.AppendInt(int64(i))
		fact.EndRow()
	}
	return engine.MustNewDatabase("skewed", fact)
}

func prep(t testing.TB, db *engine.Database, cfg SmallGroupConfig) *smallGroupPrepared {
	t.Helper()
	p, err := NewSmallGroup(cfg).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*smallGroupPrepared)
}

func TestPreprocessMetadata(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 1})
	meta := p.Meta()

	// u has 20000 distinct values > τ=100: dropped.
	if _, ok := meta.Index("u"); ok {
		t.Error("high-cardinality column u not dropped from S")
	}
	// b is uniform over 4 values of 25% each; with t=0.08 the common set needs
	// >= 92% of mass, so all 4 values are common and b has no small groups.
	if _, ok := meta.Index("b"); ok {
		t.Error("column b with no small groups not dropped from S")
	}
	// a has rare values (~5% mass): it must be in S.
	cm, ok := meta.Column("a")
	if !ok {
		t.Fatal("column a missing from S")
	}
	// L(a) should be exactly {A0, A1}: A0 (80%) alone is < 92%, A0+A1 (95%) >= 92%.
	if len(cm.Common) != 2 {
		t.Fatalf("|L(a)| = %d, want 2", len(cm.Common))
	}
	for _, v := range []string{"A0", "A1"} {
		if !meta.IsCommon("a", engine.StringVal(v)) {
			t.Errorf("%s should be common", v)
		}
	}
	if meta.IsCommon("a", engine.StringVal("A5")) {
		t.Error("A5 should be rare")
	}
	// Columns outside S treat everything as common.
	if !meta.IsCommon("b", engine.StringVal("B0")) || !meta.IsCommon("zzz", engine.IntVal(1)) {
		t.Error("columns outside S must report values as common")
	}
	// The run left its phase breakdown in aqp_core_preprocess_seconds.
	for _, phase := range []string{"count", "classify", "materialise"} {
		if s := obsPreprocessSeconds.With(phase).Value(); s <= 0 {
			t.Errorf("aqp_core_preprocess_seconds{phase=%q} = %g after Preprocess", phase, s)
		}
	}
}

func TestSmallGroupTableSizeBound(t *testing.T) {
	db := skewedDB(t, 20000)
	const frac = 0.08
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, SmallGroupFraction: frac, DistinctLimit: 100, Seed: 1})
	bound := int(frac * float64(db.NumRows()))
	for i, tbl := range p.Tables() {
		if tbl.NumRows() > bound {
			t.Errorf("small group table %d has %d rows > bound %d", i, tbl.NumRows(), bound)
		}
		if tbl.NumRows() == 0 {
			t.Errorf("small group table %d is empty", i)
		}
		cm := p.Meta().Columns()[i]
		if int64(tbl.NumRows()) != cm.RareRows {
			t.Errorf("table %d rows %d != metadata RareRows %d", i, tbl.NumRows(), cm.RareRows)
		}
	}
}

func TestSmallGroupTableContents(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 1})
	meta := p.Meta()
	ix, ok := meta.Index("a")
	if !ok {
		t.Fatal("a not in S")
	}
	tbl := p.Tables()[ix]
	col := tbl.MustColumn("a")
	for r := 0; r < tbl.NumRows(); r++ {
		v := col.Value(r)
		if meta.IsCommon("a", v) {
			t.Fatalf("row %d of a's small group table has common value %v", r, v)
		}
	}
	// Conversely, every rare-a base row must be in the table.
	var rareBase int64
	acc, _ := db.Accessor("a")
	for r := 0; r < db.NumRows(); r++ {
		if !meta.IsCommon("a", acc.Value(r)) {
			rareBase++
		}
	}
	if rareBase != int64(tbl.NumRows()) {
		t.Errorf("rare base rows %d != table rows %d", rareBase, tbl.NumRows())
	}
}

func TestOverallSampleSizeAndScale(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, SmallGroupFraction: 0.01, DistinctLimit: 100, Seed: 1})
	want := int(0.02 * 20000)
	if p.Overall().NumRows() != want {
		t.Errorf("overall rows = %d, want %d", p.Overall().NumRows(), want)
	}
	if math.Abs(p.overallScale-50) > 1e-9 {
		t.Errorf("overall scale = %g, want 50", p.overallScale)
	}
}

// TestUnweightedOverallBuilderScales: an OverallBuilder that returns nil
// weights drew an unweighted sample, so each of its rows counts for
// N/len(rows) base rows — COUNT(*) over the whole table is N, and the planner
// sees a uniform sample of N base rows, not of len(rows).
func TestUnweightedOverallBuilderScales(t *testing.T) {
	const n = 20000
	p := prep(t, skewedDB(t, n), SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, Overall: everyOtherUnweighted{}})
	ans, err := p.Answer(&engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Count}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.Result.Group(engine.EncodeKey(nil)).Vals[0]; got != n {
		t.Errorf("COUNT(*) = %g, want %d", got, n)
	}
	if got := p.stats().baseRows; got != n {
		t.Errorf("planner base rows = %g, want %d", got, n)
	}
}

// everyOtherUnweighted is an unweighted overall builder: every second row.
type everyOtherUnweighted struct{}

func (everyOtherUnweighted) BuildOverall(db *engine.Database, _ float64) (rows []int, weights []float64, err error) {
	for r := 0; r < db.NumRows(); r += 2 {
		rows = append(rows, r)
	}
	return rows, nil, nil
}

func TestRareGroupsAnsweredExactly(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.01, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 2})
	q := &engine.Query{
		GroupBy: []string{"a"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}},
	}
	exact, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	meta := p.Meta()
	for _, k := range exact.Keys() {
		eg := exact.Group(k)
		ag := ans.Result.Group(k)
		rare := !meta.IsCommon("a", eg.Key[0])
		if !rare {
			continue
		}
		if ag == nil {
			t.Fatalf("rare group %v missing from answer", eg.Key)
		}
		if !ag.Exact {
			t.Errorf("rare group %v not marked exact", eg.Key)
		}
		for i := range eg.Vals {
			if math.Abs(eg.Vals[i]-ag.Vals[i]) > 1e-9 {
				t.Errorf("rare group %v agg %d: exact %g approx %g", eg.Key, i, eg.Vals[i], ag.Vals[i])
			}
			iv := ans.Interval(k, i)
			if iv.Width() != 0 {
				t.Errorf("rare group %v agg %d: CI width %g, want 0", eg.Key, i, iv.Width())
			}
		}
	}
}

func TestRateOneReproducesExactAnswer(t *testing.T) {
	// At r = 1 the overall sample is the whole table (scale 1) and the
	// bitmask chaining must produce exactly the base answer — the key
	// no-double-counting invariant.
	db := skewedDB(t, 3000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 1.0, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 3})
	queries := []*engine.Query{
		{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}},
		{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}},
		{GroupBy: []string{"b"}, Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "m"}},
			Where: []engine.Predicate{engine.NewIn("a", engine.StringVal("A0"), engine.StringVal("A3"))}},
		{Aggs: []engine.Aggregate{{Kind: engine.Count}}},
	}
	for qi, q := range queries {
		exact, err := engine.ExecuteExact(db, q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.NumGroups() != ans.Result.NumGroups() {
			t.Fatalf("query %d: %d exact groups vs %d approx", qi, exact.NumGroups(), ans.Result.NumGroups())
		}
		for _, k := range exact.Keys() {
			eg, ag := exact.Group(k), ans.Result.Group(k)
			if ag == nil {
				t.Fatalf("query %d: group %v missing", qi, eg.Key)
			}
			for i := range eg.Vals {
				if math.Abs(eg.Vals[i]-ag.Vals[i]) > 1e-6*(1+math.Abs(eg.Vals[i])) {
					t.Errorf("query %d group %v agg %d: exact %g approx %g", qi, eg.Key, i, eg.Vals[i], ag.Vals[i])
				}
			}
		}
	}
}

func TestEstimatesUnbiased(t *testing.T) {
	// Average the COUNT estimate of the biggest (common) group over many
	// seeds; it should be close to the truth.
	db := skewedDB(t, 5000)
	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	key := engine.EncodeKey([]engine.Value{engine.StringVal("A0")})
	truth := exact.Group(key).Vals[0]
	var sum float64
	const trials = 60
	for seed := int64(0); seed < trials; seed++ {
		p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, SmallGroupFraction: 0.025, DistinctLimit: 100, Seed: seed})
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if g := ans.Result.Group(key); g != nil {
			sum += g.Vals[0]
		}
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.05 {
		t.Errorf("mean estimate %g deviates from truth %g by more than 5%%", mean, truth)
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	db := skewedDB(t, 5000)
	q := &engine.Query{GroupBy: []string{"b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 80
	covered, total := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, SmallGroupFraction: 0.025, DistinctLimit: 100, Seed: seed})
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range exact.Keys() {
			if ans.Result.Group(k) == nil {
				continue
			}
			total++
			if ans.Interval(k, 0).Contains(exact.Group(k).Vals[0]) {
				covered++
			}
		}
	}
	cov := float64(covered) / float64(total)
	if cov < 0.88 {
		t.Errorf("CI coverage %.3f below nominal 0.95 (allowing slack to 0.88)", cov)
	}
}

func TestRewriteSQL(t *testing.T) {
	// Reconstruct the §4.2.2 example: small group tables for columns A and C
	// with indexes 0 and 2 (column B sits at index 1), base rate 1%, query
	// GROUP BY A, C. The overall-sample filter mask must be 5 = 2^0 + 2^2 and
	// the scale factor 100.
	const n = 10000
	mk := func(name string) *engine.Column {
		c := engine.NewColumn(name, engine.String)
		for i := 0; i < n; i++ {
			if i%100 < 2 {
				c.AppendString(name + "_rare" + string(rune('0'+i%2)))
			} else {
				c.AppendString(name + "_common")
			}
		}
		return c
	}
	fact := engine.NewTable("T", mk("A"), mk("B"), mk("C"))
	db := engine.MustNewDatabase("paper", fact)
	if db.NumRows() != n {
		t.Fatalf("db rows = %d", db.NumRows())
	}
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.01, SmallGroupFraction: 0.05, Seed: 4})
	meta := p.Meta()
	for want, col := range []string{"A", "B", "C"} {
		if ix, ok := meta.Index(col); !ok || ix != want {
			t.Fatalf("column %s index = %d,%v, want %d", col, ix, ok, want)
		}
	}
	q := &engine.Query{GroupBy: []string{"A", "C"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	sql := p.Plan(q).SQL()
	for _, frag := range []string{
		"FROM sg_A GROUP BY A, C",
		"FROM sg_C WHERE bitmask & 1 = 0",
		"COUNT(*) * 100 AS agg0",
		"FROM sg_overall WHERE bitmask & 5 = 0",
		"UNION ALL",
	} {
		if !strings.Contains(sql, frag) {
			t.Errorf("rewritten SQL missing %q:\n%s", frag, sql)
		}
	}
}

func TestMaxTablesPerQueryHeuristic(t *testing.T) {
	db := skewedDB(t, 10000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, SmallGroupFraction: 0.3, DistinctLimit: 100, Seed: 5, MaxTablesPerQuery: 1})
	// With t=0.30, both a and b have small groups.
	if p.Meta().Width() < 2 {
		t.Skip("need at least 2 small group columns for this test")
	}
	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	plan := p.Plan(q)
	// 1 small group step + 1 overall step.
	if len(plan.Steps) != 2 {
		t.Errorf("plan has %d steps, want 2", len(plan.Steps))
	}
}

func TestPreprocessConfigValidation(t *testing.T) {
	db := skewedDB(t, 100)
	for _, cfg := range []SmallGroupConfig{
		{BaseRate: 0},
		{BaseRate: -0.1},
		{BaseRate: 1.5},
		{BaseRate: 0.1, SmallGroupFraction: -1},
		{BaseRate: 0.1, SmallGroupFraction: 2},
	} {
		if _, err := NewSmallGroup(cfg).Preprocess(db); err == nil {
			t.Errorf("config %+v not rejected", cfg)
		}
	}
}

func TestPreprocessUnknownColumn(t *testing.T) {
	db := skewedDB(t, 100)
	_, err := NewSmallGroup(SmallGroupConfig{BaseRate: 0.1, Columns: []string{"nope"}}).Preprocess(db)
	if err == nil {
		t.Error("unknown candidate column not rejected")
	}
}

// TestGroupIsExact: a group is exact when the first used table whose domain
// holds it stores it at 100%; a rare value of an unused table counts for
// nothing.
func TestGroupIsExact(t *testing.T) {
	meta := NewMetadata(100, []ColumnMeta{
		{Column: "x", Common: map[engine.Value]struct{}{engine.IntVal(1): {}}},
		{Column: "y", Common: map[engine.Value]struct{}{engine.IntVal(1): {}}},
	})
	groupBy := []string{"x", "y"}
	xOnly := newOwners(meta, groupBy, meta.RelevantTables([]string{"x"}))
	both := newOwners(meta, groupBy, meta.RelevantTables(groupBy))
	exact := func(o *owners, key ...engine.Value) bool { _, e := o.owner(key); return e }
	// x rare -> exact.
	if !exact(xOnly, engine.IntVal(2), engine.IntVal(1)) {
		t.Error("rare used column should be exact")
	}
	// x common, y rare but unused -> not exact.
	if exact(xOnly, engine.IntVal(1), engine.IntVal(2)) {
		t.Error("rare value in unused table must not count as exact")
	}
	// all common -> not exact.
	if exact(both, engine.IntVal(1), engine.IntVal(1)) {
		t.Error("common group marked exact")
	}
	// y rare, x common: y's table owns it.
	if got, _ := both.owner([]engine.Value{engine.IntVal(1), engine.IntVal(2)}); got != 1 {
		t.Errorf("owner of (common, rare) = %d, want y's table, step 1", got)
	}
}

func TestSystem(t *testing.T) {
	db := skewedDB(t, 5000)
	sys := NewSystem(db)
	if err := sys.AddStrategy(NewSmallGroup(SmallGroupConfig{BaseRate: 0.05, DistinctLimit: 100, Seed: 6})); err != nil {
		t.Fatal(err)
	}
	if got := sys.Strategies(); len(got) != 1 || got[0] != "smallgroup" {
		t.Fatalf("Strategies = %v", got)
	}
	if sys.PreprocessTime("smallgroup") <= 0 {
		t.Error("preprocess time not recorded")
	}
	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	ans, err := sys.Approx("smallgroup", q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Result.NumGroups() == 0 {
		t.Error("no groups in answer")
	}
	if ans.RowsRead <= 0 || ans.Elapsed <= 0 {
		t.Errorf("answer stats: rows=%d elapsed=%v", ans.RowsRead, ans.Elapsed)
	}
	if _, err := sys.Approx("nope", q); err == nil {
		t.Error("unknown strategy not rejected")
	}
	bad := &engine.Query{GroupBy: []string{"zzz"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	if _, err := sys.Approx("smallgroup", bad); err == nil {
		t.Error("invalid query not rejected")
	}
	exact, d, err := sys.Exact(q)
	if err != nil || exact.NumGroups() == 0 || d <= 0 {
		t.Errorf("Exact: %v groups=%d d=%v", err, exact.NumGroups(), d)
	}
}

func TestSampleAccounting(t *testing.T) {
	db := skewedDB(t, 10000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.01, SmallGroupFraction: 0.005, DistinctLimit: 100, Seed: 7})
	var want int64 = int64(p.Overall().NumRows())
	for _, tbl := range p.Tables() {
		want += int64(tbl.NumRows())
	}
	if p.SampleRows() != want {
		t.Errorf("SampleRows = %d, want %d", p.SampleRows(), want)
	}
	if p.SampleBytes() <= 0 {
		t.Error("SampleBytes not positive")
	}
}
