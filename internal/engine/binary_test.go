package engine

import (
	"bufio"
	"bytes"
	"testing"

	"dynsample/internal/bitmask"
)

func binaryFixture() *Table {
	a := NewColumn("a", String)
	b := NewColumn("b", Int)
	c := NewColumn("c", Float)
	t := NewTable("fix", a, b, c)
	t.AppendRow(StringVal("x"), IntVal(-7), FloatVal(1.5))
	t.AppendRow(StringVal("y"), IntVal(1<<50), FloatVal(-0.25))
	t.AppendRow(StringVal("x"), IntVal(0), FloatVal(0))
	t.Masks = []bitmask.Mask{
		bitmask.FromBits(70, 0, 69),
		bitmask.New(70),
		bitmask.FromBits(70, 33),
	}
	t.Weights = []float64{1, 2.5, 100}
	return t
}

func TestBinaryRoundTrip(t *testing.T) {
	orig := binaryFixture()
	var buf bytes.Buffer
	if err := WriteBinary(orig, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.NumRows() != orig.NumRows() || got.NumCols() != orig.NumCols() {
		t.Fatalf("shape mismatch: %s %dx%d", got.Name, got.NumRows(), got.NumCols())
	}
	for j, c := range got.Columns() {
		want := orig.Columns()[j]
		if c.Type != want.Type || c.Name != want.Name {
			t.Fatalf("column %d schema mismatch", j)
		}
		for i := 0; i < orig.NumRows(); i++ {
			if c.Value(i) != want.Value(i) {
				t.Errorf("cell [%d][%d]: %v vs %v", i, j, c.Value(i), want.Value(i))
			}
		}
	}
	for i := range orig.Masks {
		if !got.Masks[i].Equal(orig.Masks[i]) {
			t.Errorf("mask %d: %v vs %v", i, got.Masks[i], orig.Masks[i])
		}
	}
	for i, w := range orig.Weights {
		if got.Weights[i] != w {
			t.Errorf("weight %d: %g vs %g", i, got.Weights[i], w)
		}
	}
}

func TestBinaryRoundTripNoSideArrays(t *testing.T) {
	a := NewColumn("a", Int)
	tbl := NewTable("plain", a)
	tbl.AppendRow(IntVal(1))
	var buf bytes.Buffer
	if err := WriteBinary(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Masks != nil || got.Weights != nil {
		t.Error("side arrays materialised from nothing")
	}
}

func TestBinaryMultipleTablesOneStream(t *testing.T) {
	var buf bytes.Buffer
	t1, t2 := binaryFixture(), binaryFixture()
	t2.Name = "second"
	if err := WriteBinary(t1, &buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(t2, &buf); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	g1, err := ReadBinary(br)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(br)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Name != "fix" || g2.Name != "second" {
		t.Errorf("names %q, %q", g1.Name, g2.Name)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(binaryFixture(), &buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{3, 8, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A dictionary that lists one string under two codes would split a group.
	dup := binaryFixture()
	a := dup.MustColumn("a")
	a.dict = append(a.dict, a.dict[0])
	var dupBuf bytes.Buffer
	if err := WriteBinary(dup, &dupBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&dupBuf); err == nil {
		t.Error("repeated dictionary entry accepted")
	}
	// Loaded tables must be queryable.
	got, err := ReadBinary(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{GroupBy: []string{"a"}, Aggs: []Aggregate{{Kind: Sum, Col: "c"}}}
	res, err := Execute(got, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != 2 {
		t.Errorf("groups = %d", res.NumGroups())
	}
}
