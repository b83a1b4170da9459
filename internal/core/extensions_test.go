package core

import (
	"math"
	"strings"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// pairDB builds a table where the columns a and b are individually balanced
// (no single-column small groups at reasonable t) but one value combination
// is rare: a correlation that only a pair table can capture.
func pairDB(t *testing.T, n int) *engine.Database {
	t.Helper()
	a := engine.NewColumn("a", engine.String)
	b := engine.NewColumn("b", engine.String)
	m := engine.NewColumn("m", engine.Int)
	fact := engine.NewTable("fact", a, b, m)
	rng := randx.New(77)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.495:
			a.AppendString("A")
			b.AppendString("X")
		case r < 0.99:
			a.AppendString("B")
			b.AppendString("Y")
		case r < 0.995:
			a.AppendString("A")
			b.AppendString("Y") // rare combination ~0.5%
		default:
			b.AppendString("X")
			a.AppendString("B") // rare combination ~0.5%
		}
		m.AppendInt(int64(i%13) + 1)
		fact.EndRow()
	}
	return engine.MustNewDatabase("pairs", fact)
}

func TestPairTablesCaptureRareCombinations(t *testing.T) {
	db := pairDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{
		BaseRate:           0.02,
		SmallGroupFraction: 0.02,
		Seed:               1,
		Pairs:              [][2]string{{"a", "b"}},
	})
	meta := p.Meta()
	// a and b have no single-column small groups (all values are ~50%), so
	// the pair table must exist on its own.
	if _, ok := meta.Index("a"); ok {
		t.Error("column a unexpectedly in S")
	}
	if len(meta.Pairs()) != 1 {
		t.Fatalf("pairs = %d, want 1", len(meta.Pairs()))
	}
	pm := meta.Pairs()[0]
	if len(pm.Rare) != 2 {
		t.Errorf("rare tuples = %d, want 2 (A,Y) and (B,X)", len(pm.Rare))
	}

	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}
	exact, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	rareKeys := []engine.GroupKey{
		engine.EncodeKey([]engine.Value{engine.StringVal("A"), engine.StringVal("Y")}),
		engine.EncodeKey([]engine.Value{engine.StringVal("B"), engine.StringVal("X")}),
	}
	for _, k := range rareKeys {
		eg, ag := exact.Group(k), ans.Result.Group(k)
		if eg == nil {
			t.Fatal("fixture broken: rare combination absent from exact answer")
		}
		if ag == nil {
			t.Fatalf("rare combination %v missing from answer", engine.DecodeKey(k))
		}
		if !ag.Exact {
			t.Errorf("rare combination %v not exact", engine.DecodeKey(k))
		}
		for i := range eg.Vals {
			if math.Abs(eg.Vals[i]-ag.Vals[i]) > 1e-9 {
				t.Errorf("combination %v agg %d: exact %g approx %g", engine.DecodeKey(k), i, eg.Vals[i], ag.Vals[i])
			}
		}
	}
}

func TestPairTablesNotUsedForPartialGroupBy(t *testing.T) {
	db := pairDB(t, 10000)
	p := prep(t, db, SmallGroupConfig{
		BaseRate: 0.02, SmallGroupFraction: 0.02, Seed: 2, Pairs: [][2]string{{"a", "b"}},
	})
	// Grouping by a alone must not read the pair table: 1 step (overall only,
	// since a has no single-column table).
	plan := p.Plan(&engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}})
	if len(plan.Steps) != 1 {
		t.Errorf("plan steps = %d, want 1 (overall only)", len(plan.Steps))
	}
	// Grouping by both uses the pair table.
	plan = p.Plan(&engine.Query{GroupBy: []string{"b", "a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}})
	if len(plan.Steps) != 2 {
		t.Errorf("plan steps = %d, want 2", len(plan.Steps))
	}
}

func TestPairTablesRateOneExact(t *testing.T) {
	db := pairDB(t, 5000)
	p := prep(t, db, SmallGroupConfig{
		BaseRate: 1, SmallGroupFraction: 0.02, Seed: 3, Pairs: [][2]string{{"a", "b"}},
	})
	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumGroups() != ans.Result.NumGroups() {
		t.Fatalf("groups %d vs %d", exact.NumGroups(), ans.Result.NumGroups())
	}
	for _, k := range exact.Keys() {
		if math.Abs(exact.Group(k).Vals[0]-ans.Result.Group(k).Vals[0]) > 1e-9 {
			t.Errorf("group %v: %g vs %g", engine.DecodeKey(k), exact.Group(k).Vals[0], ans.Result.Group(k).Vals[0])
		}
	}
}

func TestPairUnknownColumnRejected(t *testing.T) {
	db := pairDB(t, 1000)
	_, err := NewSmallGroup(SmallGroupConfig{
		BaseRate: 0.1, Pairs: [][2]string{{"a", "nope"}},
	}).Preprocess(db)
	if err == nil {
		t.Error("unknown pair column not rejected")
	}
}

func TestMultiLevelHierarchy(t *testing.T) {
	db := skewedDB(t, 30000)
	levels := []HierarchyLevel{
		{MaxFraction: 0.01, Rate: 1},    // smallest groups: exact
		{MaxFraction: 0.08, Rate: 0.25}, // medium groups: 25% sample
	}
	p := prep(t, db, SmallGroupConfig{
		BaseRate: 0.02, DistinctLimit: 100, Seed: 4, Levels: levels,
	})
	meta := p.Meta()
	cm, ok := meta.Column("a")
	if !ok {
		t.Fatal("column a missing from S")
	}
	if cm.Exact == nil {
		t.Fatal("multi-level column must carry an explicit Exact set")
	}
	// There must be a medium band: values neither common nor exact.
	medium := cm.Distinct - len(cm.Common) - len(cm.Exact)
	if medium <= 0 {
		t.Fatalf("no medium-band values: distinct=%d common=%d exact=%d", cm.Distinct, len(cm.Common), len(cm.Exact))
	}

	// The table must carry weights (medium rows are subsampled).
	ix, _ := meta.Index("a")
	tbl := p.Tables()[ix]
	if tbl.Column(engine.WeightColumn) == nil {
		t.Fatal("multi-level table has no weights")
	}
	sawWeighted := false
	for i := 0; i < tbl.NumRows(); i++ {
		w := tbl.RowWeight(i)
		if w != 1 && math.Abs(w-4) > 1e-9 {
			t.Fatalf("row %d weight %g, want 1 or 4", i, w)
		}
		if w != 1 {
			sawWeighted = true
		}
	}
	if !sawWeighted {
		t.Error("no medium-band rows in the table")
	}

	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range exact.Keys() {
		eg := exact.Group(k)
		ag := ans.Result.Group(k)
		v := eg.Key[0]
		switch {
		case meta.IsExactValue("a", v):
			if ag == nil || !ag.Exact || math.Abs(ag.Vals[0]-eg.Vals[0]) > 1e-9 {
				t.Errorf("exact-band group %v wrong: %+v", v, ag)
			}
		case !meta.IsCommon("a", v):
			// Medium band: present (sampled at 25% of a >=1%-mass group) and
			// estimated, not exact.
			if ag == nil {
				t.Errorf("medium-band group %v missing", v)
				continue
			}
			if ag.Exact {
				t.Errorf("medium-band group %v wrongly marked exact", v)
			}
			rel := math.Abs(ag.Vals[0]-eg.Vals[0]) / eg.Vals[0]
			if rel > 0.9 {
				t.Errorf("medium-band group %v rel err %.2f", v, rel)
			}
		}
	}
}

func TestMultiLevelEstimatesUnbiased(t *testing.T) {
	db := skewedDB(t, 10000)
	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	// Pick a medium-band value: run one prep to find one.
	p0 := prep(t, db, SmallGroupConfig{
		BaseRate: 0.02, DistinctLimit: 100, Seed: 0,
		Levels: []HierarchyLevel{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.1, Rate: 0.3}},
	})
	var target engine.Value
	for _, k := range exact.Keys() {
		v := exact.Group(k).Key[0]
		if !p0.Meta().IsCommon("a", v) && !p0.Meta().IsExactValue("a", v) {
			target = v
			break
		}
	}
	if target == (engine.Value{}) {
		t.Skip("no medium-band value in fixture")
	}
	key := engine.EncodeKey([]engine.Value{target})
	truth := exact.Group(key).Vals[0]
	var sum float64
	const trials = 50
	for seed := int64(1); seed <= trials; seed++ {
		p := prep(t, db, SmallGroupConfig{
			BaseRate: 0.02, DistinctLimit: 100, Seed: seed,
			Levels: []HierarchyLevel{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.1, Rate: 0.3}},
		})
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if g := ans.Result.Group(key); g != nil {
			sum += g.Vals[0]
		}
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.12 {
		t.Errorf("medium-band estimate mean %g vs truth %g", mean, truth)
	}
}

func TestLevelValidation(t *testing.T) {
	db := skewedDB(t, 500)
	bad := [][]HierarchyLevel{
		{{MaxFraction: 0.01, Rate: 0.5}},                                                               // first rate != 1
		{{MaxFraction: 0, Rate: 1}},                                                                    // zero fraction
		{{MaxFraction: 0.05, Rate: 1}, {MaxFraction: 0.02, Rate: 0.5}},                                 // fractions not increasing
		{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.05, Rate: 1}},                                   // rates not decreasing
		{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.05, Rate: 1.5}},                                 // rate > 1
		{{MaxFraction: 1.5, Rate: 1}},                                                                  // fraction > 1
		{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.05, Rate: -0.1}},                                // negative rate
		{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.05, Rate: 0.5}, {MaxFraction: 0.04, Rate: 0.1}}, // 3rd not increasing
	}
	for i, lv := range bad {
		if _, err := NewSmallGroup(SmallGroupConfig{BaseRate: 0.05, Levels: lv}).Preprocess(db); err == nil {
			t.Errorf("levels %d not rejected: %+v", i, lv)
		}
	}
}

func TestRewriteSQLWithPairTable(t *testing.T) {
	db := pairDB(t, 10000)
	p := prep(t, db, SmallGroupConfig{
		BaseRate: 0.01, SmallGroupFraction: 0.02, Seed: 5, Pairs: [][2]string{{"a", "b"}},
	})
	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	sql := p.Plan(q).SQL()
	if want := "FROM sg_a__b"; !strings.Contains(sql, want) {
		t.Errorf("rewritten SQL missing %q:\n%s", want, sql)
	}
}

// TestExactnessFollowsTheOwner: a group is exact only when the table that
// answers it stores it at 100%. Over 10 000 rows with a medium band (25 %)
// above the exact one, a = "a_med" (200 rows) is medium in a's table, b =
// "b_rare" (100 rows) exact in b's; the group (a_med, b_rare) holds 100
// rows. a's table comes first, so it owns the group and answers it from its
// subsample. That answer is an estimate: it must never be marked exact with
// a zero-width interval, and its 95 % interval must cover the true count on
// at least five of six seeds (seed 4 draws 17 of the 100 rows, 68 ± 28).
func TestExactnessFollowsTheOwner(t *testing.T) {
	a := engine.NewColumn("a", engine.String)
	b := engine.NewColumn("b", engine.String)
	fact := engine.NewTable("fact", a, b)
	for r := range 10000 {
		switch {
		case r%100 < 2:
			a.AppendString("a_med")
		default:
			a.AppendString("a_common")
		}
		if r%100 == 0 {
			b.AppendString("b_rare")
		} else {
			b.AppendString("b_common")
		}
		fact.EndRow()
	}
	db := engine.MustNewDatabase("owner", fact)
	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	key := engine.EncodeKey([]engine.Value{engine.StringVal("a_med"), engine.StringVal("b_rare")})
	misses := 0
	for seed := int64(1); seed <= 6; seed++ {
		p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, Seed: seed,
			Levels: []HierarchyLevel{{MaxFraction: 0.011, Rate: 1}, {MaxFraction: 0.11, Rate: 0.25}}})
		if !p.meta.IsExactValue("b", engine.StringVal("b_rare")) || p.meta.IsExactValue("a", engine.StringVal("a_med")) || p.meta.IsCommon("a", engine.StringVal("a_med")) {
			t.Fatalf("seed %d: a_med is not medium in a's table or b_rare not exact in b's:\n%s", seed, p.meta)
		}
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		g := ans.Result.Group(key)
		if g == nil {
			t.Fatalf("seed %d: no (a_med, b_rare) group", seed)
		}
		iv := ans.Interval(key, 0)
		if g.Exact || iv.Lo == iv.Hi {
			t.Errorf("seed %d: (a_med, b_rare) = %g, exact %v, interval [%g, %g]; want an estimate", seed, g.Vals[0], g.Exact, iv.Lo, iv.Hi)
		}
		if iv.Lo > 100 || iv.Hi < 100 {
			misses++
		}
	}
	if misses > 1 {
		t.Errorf("the (a_med, b_rare) interval missed its true count 100 on %d of 6 seeds", misses)
	}
}
