package engine

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	a := NewColumn("name", String)
	b := NewColumn("qty", Int)
	c := NewColumn("price", Float)
	tbl := NewTable("orig", a, b, c)
	tbl.AppendRow(StringVal("tv, big"), IntVal(-3), FloatVal(1.25))
	tbl.AppendRow(StringVal(`quoted "x"`), IntVal(0), FloatVal(1e-9))
	tbl.AppendRow(StringVal(""), IntVal(1<<40), FloatVal(-2.5))

	var buf bytes.Buffer
	if err := WriteCSV(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("copy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() || got.NumCols() != tbl.NumCols() {
		t.Fatalf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), tbl.NumRows(), tbl.NumCols())
	}
	for j, col := range got.Columns() {
		want := tbl.Columns()[j]
		if col.Type != want.Type {
			t.Errorf("column %q type %v, want %v", col.Name, col.Type, want.Type)
		}
		for i := 0; i < tbl.NumRows(); i++ {
			if col.Value(i) != want.Value(i) {
				t.Errorf("cell [%d][%d] = %v, want %v", i, j, col.Value(i), want.Value(i))
			}
		}
	}
}

func TestReadCSVTypeInference(t *testing.T) {
	in := "a,b,c,d\n1,1.5,x,2\n2,2,y,3.5\n"
	tbl, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]Type{"a": Int, "b": Float, "c": String, "d": Float}
	for name, wt := range wants {
		if got := tbl.Column(name).Type; got != wt {
			t.Errorf("column %s inferred %v, want %v", name, got, wt)
		}
	}
}

func TestReadCSVEmptyAndErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty input not rejected")
	}
	tbl, err := ReadCSV("t", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 || tbl.NumCols() != 2 {
		t.Errorf("header-only CSV gave %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged CSV not rejected")
	}
}

func TestCSVLoadedTableQueryable(t *testing.T) {
	in := "region,amount\nWA,10\nOR,5\nWA,7\n"
	tbl, err := ReadCSV("sales", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	db := MustNewDatabase("csvdb", tbl)
	q := &Query{GroupBy: []string{"region"}, Aggs: []Aggregate{{Kind: Sum, Col: "amount"}}}
	res, err := ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Group(EncodeKey([]Value{StringVal("WA")})); g == nil || g.Vals[0] != 17 {
		t.Errorf("WA sum wrong: %+v", g)
	}
}
