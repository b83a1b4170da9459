package scenario_test

// The TPCH and SALES databases come from scenario.Builtin. These are the
// tests the deleted datagen generator carried, kept under their names and
// run against the builtin specs.

import (
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/scenario"
)

var (
	tpchMeasures  = []string{"l_quantity", "l_extendedprice"}
	salesMeasures = []string{"sale_amount", "units", "margin"}
)

func TestTPCHShape(t *testing.T) {
	db, err := scenario.Builtin("tpch", 10000, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.NumRows(); got != 10000 {
		t.Errorf("fact rows = %d, want 10000", got)
	}
	if len(db.Dims) != 4 {
		t.Errorf("dims = %d, want 4", len(db.Dims))
	}
	for _, col := range []string{"l_quantity", "l_extendedprice", "l_shipmode",
		"p_brand", "s_nation", "c_mktsegment", "o_orderpriority"} {
		if !db.HasColumn(col) {
			t.Errorf("missing column %q", col)
		}
	}
	for _, fk := range []string{"part_fk", "supp_fk", "cust_fk", "ord_fk"} {
		if db.HasColumn(fk) {
			t.Errorf("FK column %q leaked into view", fk)
		}
	}
	for _, m := range tpchMeasures {
		if !db.HasColumn(m) {
			t.Errorf("measure %q missing", m)
		}
	}
}

func TestTPCHDeterministic(t *testing.T) {
	a, err := scenario.Builtin("tpch", 2000, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Builtin("tpch", 2000, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	qa, _ := a.Accessor("l_quantity")
	qb, _ := b.Accessor("l_quantity")
	for i := 0; i < a.NumRows(); i++ {
		if qa.Value(i) != qb.Value(i) {
			t.Fatalf("row %d differs across same-seed generations", i)
		}
	}
}

func TestTPCHValidation(t *testing.T) {
	if _, err := scenario.Builtin("tpch", 0, 2.0, 1); err == nil {
		t.Error("zero fact rows not rejected")
	}
	if _, err := scenario.Builtin("tpch", 100000, -1, 1); err == nil {
		t.Error("negative zipf not rejected")
	}
}

func TestTPCHQueriesRun(t *testing.T) {
	db, err := scenario.Builtin("tpch", 5000, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{
		GroupBy: []string{"s_region", "l_returnflag"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_extendedprice"}},
	}
	res, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() == 0 {
		t.Error("no groups")
	}
	var total float64
	for _, g := range res.Groups() {
		total += g.Vals[0]
	}
	if int(total) != db.NumRows() {
		t.Errorf("counts sum to %d, want %d", int(total), db.NumRows())
	}
}

func TestSalesShape(t *testing.T) {
	db, err := scenario.Builtin("sales", 5000, 1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRows() != 5000 {
		t.Errorf("fact rows = %d", db.NumRows())
	}
	if len(db.Dims) != 6 {
		t.Errorf("dims = %d, want 6", len(db.Dims))
	}
	// Column budget: roughly 245 logical columns (FKs excluded from view).
	got := len(db.Columns())
	if got < 200 || got > 245 {
		t.Errorf("view columns = %d, want ~200-245", got)
	}
	for _, col := range []string{"product_line", "store_region", "customer_segment", "sale_amount"} {
		if !db.HasColumn(col) {
			t.Errorf("missing column %q", col)
		}
	}
	for _, m := range salesMeasures {
		if !db.HasColumn(m) {
			t.Errorf("measure %q missing", m)
		}
	}
}

func TestSalesDeterministic(t *testing.T) {
	a, err := scenario.Builtin("sales", 1000, 1.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Builtin("sales", 1000, 1.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	accA, _ := a.Accessor("sale_amount")
	accB, _ := b.Accessor("sale_amount")
	for i := 0; i < 1000; i++ {
		if accA.Float(i) != accB.Float(i) {
			t.Fatalf("row %d differs across same-seed generations", i)
		}
	}
}

func TestSalesValidation(t *testing.T) {
	if _, err := scenario.Builtin("sales", 0, 1.2, 1); err == nil {
		t.Error("zero fact rows not rejected")
	}
}

func TestSalesDimensionJoins(t *testing.T) {
	db, err := scenario.Builtin("sales", 2000, 1.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{
		GroupBy: []string{"store_region"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}},
	}
	res, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, g := range res.Groups() {
		total += g.Vals[0]
	}
	if int(total) != 2000 {
		t.Errorf("counts sum to %d", int(total))
	}
}
