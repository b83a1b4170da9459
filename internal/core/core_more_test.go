package core

import (
	"fmt"
	"strings"
	"testing"

	"dynsample/internal/bitmask"
	"dynsample/internal/engine"
	"dynsample/internal/stats"
)

func TestRewriteSQLNoGroupByWideMask(t *testing.T) {
	tbl := engine.NewTable("s_wide", engine.NewColumn("x", engine.Int))
	q := &engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "x"}}}
	plan := &RewritePlan{
		Query: q,
		Steps: []RewriteStep{
			{Source: tbl, Name: tbl.Name, Exclude: bitmask.FromBits(100, 64), Scale: 50},
		},
	}
	sql := plan.SQL()
	// Bit 64 = 2^64 = 18446744073709551616, beyond uint64: rendered as a
	// big-integer decimal.
	for _, want := range []string{"SUM(x) * 50 AS agg0", "bitmask & 18446744073709551616 = 0", "FROM s_wide"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	if strings.Contains(sql, "GROUP BY") {
		t.Errorf("SQL has GROUP BY for ungrouped query:\n%s", sql)
	}
}

func TestRewriteSQLPreservesPredicates(t *testing.T) {
	tbl := engine.NewTable("s", engine.NewColumn("a", engine.String))
	q := &engine.Query{
		GroupBy: []string{"a"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}},
		Where:   []engine.Predicate{engine.NewCmp("a", engine.Eq, engine.StringVal("v"))},
	}
	plan := &RewritePlan{Query: q, Steps: []RewriteStep{{Source: tbl, Name: tbl.Name, Scale: 1}}}
	sql := plan.SQL()
	if !strings.Contains(sql, "WHERE a = 'v'") {
		t.Errorf("predicate missing: %s", sql)
	}
	if strings.Contains(sql, "bitmask") {
		t.Errorf("zero mask should not render a bitmask filter: %s", sql)
	}
}

func TestConfidenceIntervalsLevelDefault(t *testing.T) {
	res := engine.NewResult(nil, []engine.Aggregate{{Kind: engine.Count}})
	g := res.Upsert(engine.EncodeKey(nil), func() []engine.Value { return nil })
	g.Vals[0] = 100
	g.VarAcc[0] = 25 // sd 5
	ivs := ConfidenceIntervals(res, 0)
	iv := ivs[engine.EncodeKey(nil)][0]
	if iv.Level != DefaultConfidenceLevel {
		t.Errorf("level = %g", iv.Level)
	}
	if iv.Width() < 18 || iv.Width() > 21 { // 2*1.96*5 ≈ 19.6
		t.Errorf("width = %g, want ~19.6", iv.Width())
	}
	// Negative VarAcc (float drift) must not produce NaN.
	g.VarAcc[0] = -1e-12
	ivs = ConfidenceIntervals(res, 0.9)
	if iv := ivs[engine.EncodeKey(nil)][0]; iv.Width() != 0 {
		t.Errorf("drifted variance produced width %g", iv.Width())
	}
}

func TestAnswerIntervalMissingKey(t *testing.T) {
	ans := &Answer{Intervals: map[engine.GroupKey][]stats.Interval{}}
	if iv := ans.Interval(engine.EncodeKey([]engine.Value{engine.IntVal(1)}), 0); iv.Width() != 0 {
		t.Errorf("missing key interval = %+v", iv)
	}
}

func TestMetadataStringIncludesPairs(t *testing.T) {
	m := NewMetadata(100, []ColumnMeta{{Column: "a", Common: map[engine.Value]struct{}{}}})
	m.AddPair(PairMeta{Cols: [2]string{"a", "b"}, Rare: map[engine.GroupKey]struct{}{"k": {}}, RareRows: 5})
	s := m.String()
	for _, want := range []string{"|S|=2", "(a,b)", "rareTuples=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("metadata string missing %q:\n%s", want, s)
		}
	}
}

func TestRelevantTablesOrderAndPairs(t *testing.T) {
	m := NewMetadata(100, []ColumnMeta{
		{Column: "x", Common: map[engine.Value]struct{}{}, RareRows: 10},
		{Column: "y", Common: map[engine.Value]struct{}{}, RareRows: 20},
	})
	m.AddPair(PairMeta{Cols: [2]string{"x", "y"}, Rare: map[engine.GroupKey]struct{}{"k": {}}, RareRows: 5})

	refs := m.RelevantTables([]string{"y", "x"})
	if len(refs) != 3 {
		t.Fatalf("refs = %d", len(refs))
	}
	for i := 1; i < len(refs); i++ {
		if refs[i].Index <= refs[i-1].Index {
			t.Errorf("refs not in index order: %+v", refs)
		}
	}
	// Pair requires both columns.
	refs = m.RelevantTables([]string{"x"})
	if len(refs) != 1 || refs[0].Columns[0] != "x" {
		t.Errorf("single-column refs = %+v", refs)
	}
}

func TestIsExactValueOutsideS(t *testing.T) {
	m := NewMetadata(10, nil)
	if m.IsExactValue("zzz", engine.IntVal(1)) {
		t.Error("column outside S cannot be exact")
	}
}

func TestExecutePlanErrorPropagation(t *testing.T) {
	tbl := engine.NewTable("s", engine.NewColumn("a", engine.Int))
	q := &engine.Query{GroupBy: []string{"missing"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	plan := &RewritePlan{Query: q, Steps: []RewriteStep{{Source: tbl, Name: tbl.Name, Scale: 1}}}
	if _, _, err := ExecutePlan(plan); err == nil {
		t.Error("bad column not propagated")
	}
}

func TestSmallGroupName(t *testing.T) {
	if NewSmallGroup(SmallGroupConfig{}).Name() != "smallgroup" {
		t.Error("Name wrong")
	}
}

func TestPreprocessEmptyDatabase(t *testing.T) {
	db := engine.MustNewDatabase("empty", engine.NewTable("f", engine.NewColumn("a", engine.Int)))
	if _, err := NewSmallGroup(SmallGroupConfig{BaseRate: 0.1}).Preprocess(db); err == nil {
		t.Error("empty database not rejected")
	}
}

// TestExactFloatSumIntervalsCoverShardOrder: an exact group's float SUM
// added up in two shard orders lands on two different float64s; each
// answer's interval must contain the other, and both must be as tight as
// the arithmetic allows. Integer sums and COUNTs stay zero-width.
func TestExactFloatSumIntervalsCoverShardOrder(t *testing.T) {
	shard := func(lo, hi int) *engine.Table {
		x, k := engine.NewColumn("x", engine.Float), engine.NewColumn("k", engine.Int)
		tbl := engine.NewTable(fmt.Sprintf("shard_%d", lo), x, k)
		for i := lo; i < hi; i++ {
			x.AppendFloat(0.1*float64(i%97) + 1e5/float64(i+1))
			k.AppendInt(int64(i%31) + 1)
			tbl.EndRow()
		}
		return tbl
	}
	q := &engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "x"}, {Kind: engine.Sum, Col: "k"}, {Kind: engine.Count}}}
	shards := []*engine.Table{shard(0, 700), shard(700, 1900), shard(1900, 3000)}
	sum := func(order ...int) (*engine.Group, []stats.Interval) {
		res := engine.NewResult(q.GroupBy, q.Aggs)
		for _, i := range order {
			part, err := engine.Execute(shards[i], q, engine.ExecOptions{Scale: 1, MarkExact: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		key := engine.EncodeKey(nil)
		return res.Group(key), ConfidenceIntervals(res, 0)[key]
	}
	a, aiv := sum(0, 1, 2)
	b, biv := sum(1, 2, 0)
	if a.Vals[0] == b.Vals[0] {
		t.Fatal("both shard orders produced the same float sum; the test data no longer exercises rounding")
	}
	if !aiv[0].Contains(b.Vals[0]) || !biv[0].Contains(a.Vals[0]) {
		t.Errorf("float sums %v and %v (apart by %g) are outside each other's intervals %+v, %+v",
			a.Vals[0], b.Vals[0], a.Vals[0]-b.Vals[0], aiv[0], biv[0])
	}
	if w := aiv[0].Width(); w <= 0 || w > 1e-6*a.Vals[0] {
		t.Errorf("float sum interval width %g on a sum of %g: want positive and negligible", w, a.Vals[0])
	}
	for i := 1; i <= 2; i++ {
		if a.Vals[i] != b.Vals[i] || aiv[i].Width() != 0 || biv[i].Width() != 0 {
			t.Errorf("aggregate %d (integer-valued): sums %v / %v, widths %g / %g; want equal sums and lo == hi",
				i, a.Vals[i], b.Vals[i], aiv[i].Width(), biv[i].Width())
		}
	}
}
