package engine

import (
	"strings"
	"testing"

	"dynsample/internal/bitmask"
)

func TestAddColumnAndRowValues(t *testing.T) {
	a := NewColumn("a", Int)
	a.AppendInt(1)
	a.AppendInt(2)
	tbl := NewTable("t", a)
	b := NewColumn("b", String)
	b.AppendString("x")
	b.AppendString("y")
	tbl.AddColumn(b)
	if tbl.NumCols() != 2 {
		t.Fatalf("cols = %d", tbl.NumCols())
	}
	vals := tbl.RowValues(1)
	if vals[0].I != 2 || vals[1].S != "y" {
		t.Errorf("RowValues(1) = %v", vals)
	}
	// Mismatched length must panic.
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched AddColumn")
		}
	}()
	short := NewColumn("c", Int)
	short.AppendInt(9)
	tbl.AddColumn(short)
}

func TestEndRowPanicsWhenOutOfStep(t *testing.T) {
	a := NewColumn("a", Int)
	b := NewColumn("b", Int)
	tbl := NewTable("t", a, b)
	a.AppendInt(1) // b not appended
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tbl.EndRow()
}

func TestMustColumnPanics(t *testing.T) {
	tbl := NewTable("t", NewColumn("a", Int))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tbl.MustColumn("nope")
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTable("t", NewColumn("a", Int), NewColumn("a", Int))
}

func TestColumnTypeLookup(t *testing.T) {
	db := testDB(t)
	for col, want := range map[string]Type{"product": String, "quantity": Int, "state": String} {
		got, err := db.ColumnType(col)
		if err != nil || got != want {
			t.Errorf("ColumnType(%s) = %v, %v", col, got, err)
		}
	}
	if _, err := db.ColumnType("nope"); err == nil {
		t.Error("unknown column not rejected")
	}
}

func TestDatabaseRowMaskAndWeight(t *testing.T) {
	db := testDB(t)
	if _, ok := db.Fact.RowMask(0); ok {
		t.Error("base database should carry no masks")
	}
	if w := db.Fact.RowWeight(0); w != 1 {
		t.Errorf("base row weight = %g", w)
	}
	// A renormalized sample's fact rows carry both, as columns the view binds
	// and does not list.
	rows := []int{0, 1}
	s, err := NewRenormalizer(db, rows).Build("s", rows, []bitmask.Mask{bitmask.FromBits(3, 1), bitmask.New(3)}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Fact.RowMask(0); !ok || !m.Bit(1) || s.Fact.RowWeight(1) != 3 {
		t.Errorf("sample row mask %v (%v), weight %g", m, ok, s.Fact.RowWeight(1))
	}
	if _, err := s.View(MaskColumn(0)); err != nil || s.HasColumn("nope") || len(s.Columns()) != len(db.Columns()) {
		t.Errorf("reserved columns: view %v, logical columns %v", err, s.Columns())
	}
}

func TestFKAccessorFloatAndCode(t *testing.T) {
	db := testDB(t)
	acc, err := db.Accessor("city")
	if err != nil {
		t.Fatal(err)
	}
	ca, ok := acc.(CodeAccessor)
	if !ok {
		t.Fatal("string dimension column should expose codes")
	}
	if ca.DictSize() != 3 {
		t.Errorf("dict size = %d", ca.DictSize())
	}
	if got := ca.DictValue(ca.Code(2)); got != "Portland" {
		t.Errorf("code round trip = %q", got)
	}
	if f := acc.Float(0); f != 0 {
		t.Errorf("string Float = %g, want 0", f)
	}
}

func TestResultString(t *testing.T) {
	db := testDB(t)
	q := &Query{GroupBy: []string{"product"}, Aggs: []Aggregate{{Kind: Count}}}
	res, err := ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"product", "COUNT(*)", "'Stereo'", "(exact)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Result.String missing %q:\n%s", want, out)
		}
	}
}

func TestQueryStringNoGroupByNoWhere(t *testing.T) {
	q := &Query{Aggs: []Aggregate{{Kind: Count}}}
	if got := q.String(); got != "SELECT COUNT(*) FROM T" {
		t.Errorf("String = %q", got)
	}
}

func TestAggregateAndTypeStrings(t *testing.T) {
	if Count.String() != "COUNT" || Sum.String() != "SUM" {
		t.Error("AggKind strings wrong")
	}
	if !strings.Contains(AggKind(9).String(), "9") {
		t.Error("unknown AggKind string")
	}
	if Int.String() != "INT" || Float.String() != "FLOAT" || String.String() != "VARCHAR" {
		t.Error("Type strings wrong")
	}
	if !strings.Contains(Type(9).String(), "9") {
		t.Error("unknown Type string")
	}
	if (Aggregate{Kind: Sum, Col: "x"}).String() != "SUM(x)" {
		t.Error("Aggregate string wrong")
	}
}

func TestCmpOpStrings(t *testing.T) {
	wants := map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
	for op, w := range wants {
		if op.String() != w {
			t.Errorf("%v string = %q", op, op.String())
		}
	}
	if !strings.Contains(CmpOp(99).String(), "99") {
		t.Error("unknown CmpOp string")
	}
}

func TestApproxBytesWithMasksAndWeights(t *testing.T) {
	db := testDB(t)
	plain := db.Flatten("p", []int{0, 1}, nil, nil)
	weighted := db.Flatten("w", []int{0, 1}, nil, []float64{1, 2})
	if weighted.ApproxBytes() <= plain.ApproxBytes() {
		t.Error("weights not accounted in ApproxBytes")
	}
}
