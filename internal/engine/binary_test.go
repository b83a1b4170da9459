package engine

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dynsample/internal/bitmask"
)

var (
	fixtureWeights = []float64{1, 2.5, 100}
	fixtureBits    = func(width int) [][]int { return [][]int{{0, width - 1}, nil, {width / 2}} }
)

func binaryFixture() *Table { return maskedFixture(70) }

// maskedFixture is a three-row sample table whose masks are width bits wide.
func maskedFixture(width int) *Table {
	a := NewColumn("a", String)
	b := NewColumn("b", Int)
	c := NewColumn("c", Float)
	t := NewTable("fix", a, b, c)
	t.AppendRow(StringVal("x"), IntVal(-7), FloatVal(1.5))
	t.AppendRow(StringVal("y"), IntVal(1<<50), FloatVal(-0.25))
	t.AppendRow(StringVal("x"), IntVal(0), FloatVal(0))
	var masks []bitmask.Mask
	for _, bits := range fixtureBits(width) {
		masks = append(masks, bitmask.FromBits(width, bits...))
	}
	t.addSampleColumns(masks, fixtureWeights)
	return t
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, width := range []int{2, 64, 70, 146, 245} {
		testBinaryRoundTrip(t, width)
	}
}

func testBinaryRoundTrip(t *testing.T, width int) {
	orig := maskedFixture(width)
	if want := 3 + (width+63)/64 + 1; orig.NumCols() != want {
		t.Fatalf("width %d: %d columns, want %d", width, orig.NumCols(), want)
	}
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
	for i, bits := range fixtureBits(width) {
		if m, ok := got.RowMask(i); !ok || !reflect.DeepEqual(m.Bits(), bits) {
			t.Errorf("width %d mask %d: %v (%v), want bits %v", width, i, m, ok, bits)
		}
		if w := got.RowWeight(i); w != fixtureWeights[i] {
			t.Errorf("weight %d: %g vs %g", i, w, fixtureWeights[i])
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
	if _, masked := got.RowMask(0); masked || got.NumCols() != 1 || got.RowWeight(0) != 1 {
		t.Error("mask or weight columns materialised from nothing")
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
	// The format before mask words and weights were columns: refused by name.
	old := append([]byte("DSTB"), full[len(tableMagic):]...)
	if _, err := ReadBinary(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), `"DSTB"`) || !strings.Contains(err.Error(), tableMagic) {
		t.Errorf("old-format file: %v, want an error naming both formats", err)
	}
	// A reserved column of the wrong type would be read as mask words.
	bad := maskedFixture(70)
	bad.cols[3].Name, bad.cols[5].Name = bad.cols[5].Name, bad.cols[3].Name // @weight names an Int column
	var badBuf bytes.Buffer
	if err := WriteBinary(bad, &badBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&badBuf); err == nil || !strings.Contains(err.Error(), "reserved column") {
		t.Errorf("mistyped reserved column: %v", err)
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
