package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"dynsample/internal/bitmask"
)

// testDB builds the running example from §3 scaled up: a fact table of sales
// with product and quantity plus a store dimension reached via FK.
//
// Fact rows: 6 rows.
//
//	product  quantity  store_fk
//	Stereo   10        0 (Seattle/WA)
//	Stereo   20        0
//	TV       5         1 (Portland/OR)
//	Stereo   30        1
//	TV       7         2 (Spokane/WA)
//	Radio    2         2
func testDB(t *testing.T) *Database {
	t.Helper()
	product := NewColumn("product", String)
	quantity := NewColumn("quantity", Int)
	storeFK := NewColumn("store_fk", Int)
	fact := NewTable("sales", product, quantity, storeFK)
	for _, r := range []struct {
		p  string
		q  int64
		fk int64
	}{
		{"Stereo", 10, 0}, {"Stereo", 20, 0}, {"TV", 5, 1},
		{"Stereo", 30, 1}, {"TV", 7, 2}, {"Radio", 2, 2},
	} {
		fact.AppendRow(StringVal(r.p), IntVal(r.q), IntVal(r.fk))
	}

	city := NewColumn("city", String)
	state := NewColumn("state", String)
	dim := NewTable("store", city, state)
	dim.AppendRow(StringVal("Seattle"), StringVal("WA"))
	dim.AppendRow(StringVal("Portland"), StringVal("OR"))
	dim.AppendRow(StringVal("Spokane"), StringVal("WA"))

	db, err := NewDatabase("test", fact, DimJoin{Table: dim, FK: "store_fk"})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDatabaseColumns(t *testing.T) {
	db := testDB(t)
	cols := db.Columns()
	want := []string{"product", "quantity", "city", "state"}
	if len(cols) != len(want) {
		t.Fatalf("Columns() = %v, want %v", cols, want)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("Columns() = %v, want %v", cols, want)
		}
	}
	if db.HasColumn("store_fk") {
		t.Error("FK column leaked into view columns")
	}
	if db.NumRows() != 6 {
		t.Errorf("NumRows = %d", db.NumRows())
	}
}

func TestDatabaseErrors(t *testing.T) {
	fact := NewTable("f", NewColumn("a", Int))
	if _, err := NewDatabase("x", fact, DimJoin{Table: NewTable("d"), FK: "nope"}); err == nil {
		t.Error("missing FK column not rejected")
	}
	fact2 := NewTable("f", NewColumn("a", String))
	if _, err := NewDatabase("x", fact2, DimJoin{Table: NewTable("d"), FK: "a"}); err == nil {
		t.Error("non-INT FK column not rejected")
	}
	// Duplicate column name across fact and dim.
	f3 := NewTable("f", NewColumn("a", Int), NewColumn("fk", Int))
	d3 := NewTable("d", NewColumn("a", Int))
	if _, err := NewDatabase("x", f3, DimJoin{Table: d3, FK: "fk"}); err == nil {
		t.Error("duplicate column name not rejected")
	}
}

func TestFKAccessor(t *testing.T) {
	db := testDB(t)
	acc, err := db.Accessor("state")
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"WA", "WA", "OR", "OR", "WA", "WA"}
	for i, w := range wants {
		if got := acc.Value(i); got.S != w {
			t.Errorf("row %d state = %v, want %s", i, got, w)
		}
	}
}

func TestExecuteExactGroupBySingleColumn(t *testing.T) {
	db := testDB(t)
	q := &Query{
		GroupBy: []string{"product"},
		Aggs:    []Aggregate{{Kind: Count}, {Kind: Sum, Col: "quantity"}},
	}
	res, err := ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != 3 {
		t.Fatalf("groups = %d, want 3", res.NumGroups())
	}
	checks := map[string][2]float64{
		"Stereo": {3, 60},
		"TV":     {2, 12},
		"Radio":  {1, 2},
	}
	for name, want := range checks {
		g := res.Group(EncodeKey([]Value{StringVal(name)}))
		if g == nil {
			t.Fatalf("missing group %s", name)
		}
		if g.Vals[0] != want[0] || g.Vals[1] != want[1] {
			t.Errorf("%s: got (%g,%g), want %v", name, g.Vals[0], g.Vals[1], want)
		}
		if !g.Exact {
			t.Errorf("%s: exact flag not set", name)
		}
	}
}

func TestExecuteGroupByDimensionColumn(t *testing.T) {
	db := testDB(t)
	q := &Query{
		GroupBy: []string{"state"},
		Aggs:    []Aggregate{{Kind: Sum, Col: "quantity"}},
	}
	res, err := ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	wa := res.Group(EncodeKey([]Value{StringVal("WA")}))
	or := res.Group(EncodeKey([]Value{StringVal("OR")}))
	if wa == nil || or == nil {
		t.Fatal("missing state group")
	}
	if wa.Vals[0] != 39 { // 10+20+7+2
		t.Errorf("WA sum = %g, want 39", wa.Vals[0])
	}
	if or.Vals[0] != 35 { // 5+30
		t.Errorf("OR sum = %g, want 35", or.Vals[0])
	}
}

func TestExecuteWithPredicates(t *testing.T) {
	db := testDB(t)
	q := &Query{
		GroupBy: []string{"product"},
		Aggs:    []Aggregate{{Kind: Count}},
		Where: []Predicate{
			NewIn("state", StringVal("WA")),
			NewCmp("quantity", Ge, IntVal(7)),
		},
	}
	res, err := ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// WA rows with quantity>=7: Stereo(10), Stereo(20), TV(7).
	if res.NumGroups() != 2 {
		t.Fatalf("groups = %d, want 2", res.NumGroups())
	}
	if g := res.Group(EncodeKey([]Value{StringVal("Stereo")})); g == nil || g.Vals[0] != 2 {
		t.Errorf("Stereo count wrong: %+v", g)
	}
	if g := res.Group(EncodeKey([]Value{StringVal("TV")})); g == nil || g.Vals[0] != 1 {
		t.Errorf("TV count wrong: %+v", g)
	}
	if res.RowsMatched != 3 {
		t.Errorf("RowsMatched = %d, want 3", res.RowsMatched)
	}
	if res.RowsScanned != 6 {
		t.Errorf("RowsScanned = %d, want 6", res.RowsScanned)
	}
}

func TestExecuteNoGroupBy(t *testing.T) {
	db := testDB(t)
	q := &Query{Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Col: "quantity"}}}
	res, err := ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != 1 {
		t.Fatalf("groups = %d, want 1", res.NumGroups())
	}
	g := res.Group(EncodeKey(nil))
	if g.Vals[0] != 6 || g.Vals[1] != 74 {
		t.Errorf("totals = %v, want [6 74]", g.Vals)
	}
}

func TestExecuteScaleAndWeights(t *testing.T) {
	db := testDB(t)
	flat := db.Flatten("s", []int{0, 2}, nil, []float64{2, 3})
	q := &Query{Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Col: "quantity"}}}
	res, err := ExecuteCtx(context.Background(), flat, q, ExecOptions{Scale: 10})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Group(EncodeKey(nil))
	// Count: 10*(2+3) = 50. Sum: 10*(2*10 + 3*5) = 350.
	if g.Vals[0] != 50 {
		t.Errorf("count = %g, want 50", g.Vals[0])
	}
	if g.Vals[1] != 350 {
		t.Errorf("sum = %g, want 350", g.Vals[1])
	}
	// Raw stats are unscaled.
	if g.RawRows != 2 || g.RawSum[0] != 2 || g.RawSum[1] != 15 {
		t.Errorf("raw stats wrong: %+v", g)
	}
	if g.RawSumSq[1] != 125 { // 100 + 25
		t.Errorf("RawSumSq = %g, want 125", g.RawSumSq[1])
	}
}

func TestExecuteMaskFilter(t *testing.T) {
	db := testDB(t)
	masks := []bitmask.Mask{
		maskOf(3, 0),
		maskOf(3, 1),
		bitmask.New(3),
	}
	flat := db.Flatten("s", []int{0, 1, 2}, masks, nil)
	q := &Query{Aggs: []Aggregate{{Kind: Count}}}
	res, err := ExecuteCtx(context.Background(), flat, q, ExecOptions{ExcludeMask: maskOf(3, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 has bit 0 -> excluded. Rows 1,2 pass.
	if g := res.Group(EncodeKey(nil)); g.Vals[0] != 2 {
		t.Errorf("count = %g, want 2", g.Vals[0])
	}
	if res.RowsScanned != 2 {
		t.Errorf("RowsScanned = %d, want 2", res.RowsScanned)
	}
}

func TestExecuteMarkExact(t *testing.T) {
	db := testDB(t)
	flat := db.Flatten("s", []int{0, 1}, nil, nil)
	q := &Query{GroupBy: []string{"product"}, Aggs: []Aggregate{{Kind: Count}}}
	res, err := ExecuteCtx(context.Background(), flat, q, ExecOptions{MarkExact: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups() {
		if !g.Exact {
			t.Errorf("group %v not exact", g.Key)
		}
	}
}

func TestFlattenPreservesValues(t *testing.T) {
	db := testDB(t)
	flat := db.Flatten("s", []int{3, 4}, nil, nil)
	if flat.NumRows() != 2 {
		t.Fatalf("rows = %d", flat.NumRows())
	}
	if got := flat.Column("product").Value(0).S; got != "Stereo" {
		t.Errorf("product[0] = %q", got)
	}
	if got := flat.Column("city").Value(0).S; got != "Portland" {
		t.Errorf("city[0] = %q", got)
	}
	if got := flat.Column("state").Value(1).S; got != "WA" {
		t.Errorf("state[1] = %q", got)
	}
	if got := flat.Column("quantity").Value(1).I; got != 7 {
		t.Errorf("quantity[1] = %d", got)
	}
}

func TestQueryValidate(t *testing.T) {
	db := testDB(t)
	bad := []*Query{
		{GroupBy: []string{"nope"}, Aggs: []Aggregate{{Kind: Count}}},
		{Aggs: []Aggregate{{Kind: Sum, Col: "nope"}}},
		{Aggs: []Aggregate{{Kind: Count}}, Where: []Predicate{NewIn("nope", IntVal(1))}},
		{GroupBy: []string{"product"}},
	}
	for i, q := range bad {
		if err := q.Validate(db); err == nil {
			t.Errorf("query %d not rejected", i)
		}
	}
	good := &Query{GroupBy: []string{"product"}, Aggs: []Aggregate{{Kind: Count}}}
	if err := good.Validate(db); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestQueryString(t *testing.T) {
	q := &Query{
		GroupBy: []string{"product", "state"},
		Aggs:    []Aggregate{{Kind: Count}, {Kind: Sum, Col: "quantity"}},
		Where:   []Predicate{NewIn("state", StringVal("WA"), StringVal("OR"))},
	}
	s := q.String()
	for _, want := range []string{"SELECT product, state, COUNT(*), SUM(quantity)", "WHERE state IN ('OR', 'WA')", "GROUP BY product, state"} {
		if !strings.Contains(s, want) {
			t.Errorf("query string %q missing %q", s, want)
		}
	}
}

func TestResultMerge(t *testing.T) {
	aggs := []Aggregate{{Kind: Count}}
	a := NewResult([]string{"g"}, aggs)
	b := NewResult([]string{"g"}, aggs)
	k1 := EncodeKey([]Value{IntVal(1)})
	k2 := EncodeKey([]Value{IntVal(2)})

	ga := a.Upsert(k1, func() []Value { return []Value{IntVal(1)} })
	ga.Vals[0] = 5
	ga.RawRows = 5
	ga.Exact = true

	gb := b.Upsert(k1, func() []Value { return []Value{IntVal(1)} })
	gb.Vals[0] = 3
	gb.RawRows = 3
	gb2 := b.Upsert(k2, func() []Value { return []Value{IntVal(2)} })
	gb2.Vals[0] = 7
	gb2.Exact = true

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() != 2 {
		t.Fatalf("groups = %d", a.NumGroups())
	}
	g1 := a.Group(k1)
	if g1.Vals[0] != 8 || g1.RawRows != 8 {
		t.Errorf("merged group: %+v", g1)
	}
	if g1.Exact {
		t.Error("merged group should lose exactness (one side inexact)")
	}
	if g2 := a.Group(k2); g2.Vals[0] != 7 || !g2.Exact {
		t.Errorf("copied group: %+v", g2)
	}
}

func TestResultMergeShapeMismatch(t *testing.T) {
	a := NewResult(nil, []Aggregate{{Kind: Count}})
	b := NewResult(nil, []Aggregate{{Kind: Count}, {Kind: Count}})
	if err := a.Merge(b); err == nil {
		t.Error("shape mismatch not rejected")
	}
}

func TestDistinctValues(t *testing.T) {
	db := testDB(t)
	vcs, err := db.DistinctValues("product")
	if err != nil {
		t.Fatal(err)
	}
	if len(vcs) != 3 {
		t.Fatalf("distinct = %d", len(vcs))
	}
	if vcs[0].Value.S != "Stereo" || vcs[0].Count != 3 {
		t.Errorf("top value %+v", vcs[0])
	}
	if vcs[2].Value.S != "Radio" || vcs[2].Count != 1 {
		t.Errorf("last value %+v", vcs[2])
	}
}

func TestPredicates(t *testing.T) {
	in := NewIn("c", IntVal(1), IntVal(3))
	if !in.Matches(IntVal(1)) || in.Matches(IntVal(2)) {
		t.Error("InPredicate wrong")
	}
	rg := NewRange("c", IntVal(2), IntVal(4))
	for v, want := range map[int64]bool{1: false, 2: true, 3: true, 4: true, 5: false} {
		if rg.Matches(IntVal(v)) != want {
			t.Errorf("range match %d != %v", v, want)
		}
	}
	cases := []struct {
		op   CmpOp
		v    int64
		want bool
	}{
		{Eq, 5, true}, {Eq, 4, false},
		{Ne, 4, true}, {Ne, 5, false},
		{Lt, 4, true}, {Lt, 5, false},
		{Le, 5, true}, {Le, 6, false},
		{Gt, 6, true}, {Gt, 5, false},
		{Ge, 5, true}, {Ge, 4, false},
	}
	for _, c := range cases {
		p := NewCmp("c", c.op, IntVal(5))
		if p.Matches(IntVal(c.v)) != c.want {
			t.Errorf("%v %v 5: want %v", c.v, c.op, c.want)
		}
	}
}

func TestPredicateStrings(t *testing.T) {
	if s := NewIn("a", IntVal(2), IntVal(1)).String(); s != "a IN (1, 2)" {
		t.Errorf("in string %q", s)
	}
	if s := NewCmp("a", Le, FloatVal(1.5)).String(); s != "a <= 1.5" {
		t.Errorf("cmp string %q", s)
	}
	if s := NewRange("a", IntVal(1), IntVal(9)).String(); s != "a BETWEEN 1 AND 9" {
		t.Errorf("range string %q", s)
	}
}

func TestColumnTypeMismatchPanics(t *testing.T) {
	c := NewColumn("x", Int)
	for _, f := range []func(){
		func() { c.Append(StringVal("no")) },
		func() { c.AppendFloat(1) },
		func() { c.AppendString("no") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTableApproxBytes(t *testing.T) {
	db := testDB(t)
	if b := db.Fact.ApproxBytes(); b <= 0 {
		t.Errorf("fact bytes = %d", b)
	}
	if b := db.TotalBytes(); b <= db.Fact.ApproxBytes() {
		t.Errorf("total bytes %d should exceed fact bytes", b)
	}
}

func TestDictionaryEncoding(t *testing.T) {
	c := NewColumn("s", String)
	for i := 0; i < 1000; i++ {
		c.AppendString("v" + string(rune('a'+i%3)))
	}
	if len(c.dict) != 3 {
		t.Errorf("distinct = %d, want 3", len(c.dict))
	}
	if c.Len() != 1000 {
		t.Errorf("len = %d", c.Len())
	}
	if got := c.Value(5).S; got != "vc" {
		t.Errorf("value[5] = %q", got)
	}
}

func TestExactEqualsScaledAtRateOne(t *testing.T) {
	// Sampling at rate 1 with scale 1 must reproduce the exact answer.
	db := testDB(t)
	all := make([]int, db.NumRows())
	for i := range all {
		all[i] = i
	}
	flat := db.Flatten("full", all, nil, nil)
	q := &Query{GroupBy: []string{"product"}, Aggs: []Aggregate{{Kind: Sum, Col: "quantity"}}}
	exact, err := ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ExecuteCtx(context.Background(), flat, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumGroups() != approx.NumGroups() {
		t.Fatalf("group counts differ: %d vs %d", exact.NumGroups(), approx.NumGroups())
	}
	for _, k := range exact.Keys() {
		e, a := exact.Group(k), approx.Group(k)
		if a == nil || math.Abs(e.Vals[0]-a.Vals[0]) > 1e-9 {
			t.Errorf("group %v: exact %v approx %+v", decodeKey(k), e.Vals[0], a)
		}
	}
}
