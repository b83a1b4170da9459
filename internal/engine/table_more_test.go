package engine

import (
	"bytes"
	"strings"
	"testing"
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
	vals := rowValues(tbl, 1)
	if vals[0].I != 2 || vals[1].S != "y" {
		t.Errorf("row 1 = %v", vals)
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
	if w := db.Fact.RowWeight(0); w != 1 {
		t.Errorf("base row weight = %g", w)
	}
	// A fact slice's rows carry their weights, and a table an older build
	// wrote its mask words, as columns the view binds and does not list.
	fact := db.FactSlice("s", []int{0, 1}, []float64{2, 3}).Fact
	mask := NewColumn(olderMaskColumn, Int)
	mask.AppendInt(2)
	mask.AppendInt(0)
	fact.addColumn(mask)
	s := MustNewDatabase("s", fact, db.Dims...)
	if s.Fact.RowWeight(1) != 3 {
		t.Errorf("sample row weight %g", s.Fact.RowWeight(1))
	}
	if v, err := s.View(olderMaskColumn); err != nil || v.Type != Int || s.HasColumn("nope") || len(s.Columns()) != len(db.Columns()) {
		t.Errorf("reserved columns: view %v, logical columns %v", err, s.Columns())
	}
}

func TestFKAccessorFloatAndCode(t *testing.T) {
	db := testDB(t)
	acc, err := db.Accessor("city")
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.Value(2); got != StringVal("Portland") {
		t.Errorf("row 2 reads %v through its dictionary code, want 'Portland'", got)
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
	plain := flatten(db, "p", []int{0, 1}, nil)
	weighted := flatten(db, "w", []int{0, 1}, []float64{1, 2})
	if weighted.ApproxBytes() <= plain.ApproxBytes() {
		t.Error("weights not accounted in ApproxBytes")
	}
}

// TestChecksumFollowsTheValues: a table's Checksum over its first rows is
// the same for a copy stored otherwise (read back from its binary form,
// every chunk sealed and every dictionary rebuilt), does not see rows past
// them, and changes with any value in them.
func TestChecksumFollowsTheValues(t *testing.T) {
	dim := testDB(t).Dims[0].Table
	var buf bytes.Buffer
	if err := WriteBinary(dim, &buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	all := dim.Checksum(dim.NumRows())
	if cp.Checksum(cp.NumRows()) != all {
		t.Fatal("a binary round trip changed the checksum")
	}
	grown := cp.CloneForAppend()
	grown.AppendRow(StringVal("Tacoma"), StringVal("WA"))
	if grown.Checksum(dim.NumRows()) != all || grown.Checksum(grown.NumRows()) == all {
		t.Fatal("the checksum of the first rows saw an appended row, or that of all rows did not")
	}
	other := cp.CloneForAppend()
	other.SetRow(1, StringVal("Portland"), StringVal("ME"))
	if other.Checksum(other.NumRows()) == all {
		t.Fatal("a changed value left the checksum as it was")
	}
}

// TestRejoinSharesTheBindings: a database rejoined over later versions of
// its tables reads every view column as one built from them afresh.
func TestRejoinSharesTheBindings(t *testing.T) {
	db := testDB(t)
	fact, dim := db.Fact.CloneForAppend(), db.Dims[0].Table.CloneForAppend()
	dim.AppendRow(StringVal("Tacoma"), StringVal("WA"))
	fact.AppendRow(StringVal("Radio"), IntVal(4), IntVal(3))
	got := db.Rejoin(fact, DimJoin{Table: dim, FK: "store_fk"})
	want := MustNewDatabase(db.Name, fact, DimJoin{Table: dim, FK: "store_fk"})
	for _, name := range want.Columns() {
		g, _ := got.Accessor(name)
		w, _ := want.Accessor(name)
		for r := range want.NumRows() {
			if g.Value(r) != w.Value(r) {
				t.Fatalf("%s row %d: %v, want %v", name, r, g.Value(r), w.Value(r))
			}
		}
	}
	if db.NumRows() != 6 || got.NumRows() != 7 {
		t.Fatalf("rows: the old version %d, the new %d", db.NumRows(), got.NumRows())
	}
}
