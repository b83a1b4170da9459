package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// bulkCase is one column's history: blocks of values appended in order, the
// table cloned for append before the blocks clone names.
type bulkCase struct {
	name   string
	typ    Type
	blocks [][]Value
	clone  map[int]bool
}

// appendBlock appends vals to c one at a time, or as one typed block: a
// string block by the codes Intern gives, in row order.
func appendBlock(c *Column, vals []Value, bulk bool) {
	if !bulk {
		for _, v := range vals {
			c.Append(v)
		}
		return
	}
	switch c.Type {
	case Int:
		xs := make([]int64, len(vals))
		for i, v := range vals {
			xs[i] = v.I
		}
		c.AppendInts(xs)
	case Float:
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = v.F
		}
		c.AppendFloats(xs)
	default:
		codes := make([]int32, len(vals))
		for i, v := range vals {
			codes[i] = c.Intern(v.S)
		}
		c.AppendCodes(codes)
	}
}

// run plays the case and returns every version of the table: one per clone,
// and the last.
func (bc bulkCase) run(bulk bool) []*Table {
	tbl := NewTable("t", NewColumn("c", bc.typ))
	var versions []*Table
	for i, blk := range bc.blocks {
		if bc.clone[i] {
			versions = append(versions, tbl)
			tbl = tbl.CloneForAppend()
		}
		appendBlock(tbl.Columns()[0], blk, bulk)
	}
	return append(versions, tbl)
}

// TestBulkAppendMatchesPerValue: AppendInts, AppendFloats and AppendCodes
// leave a column as appending the same values one by one does — chunk for
// chunk, the open tail and its capacity, the bytes held, and the dictionary
// in order of first appearance — on and off a chunk edge, for a short last
// block, an all-equal block, a block that stays wide, and after
// CloneForAppend, where the tail an older version shares must not be sealed
// over or kept: every older version still reads its own rows.
func TestBulkAppendMatchesPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ints := func(n int, draw func() int64) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = IntVal(draw())
		}
		return out
	}
	narrow := func(n int) []Value { return ints(n, func() int64 { return 1000 + rng.Int63n(300) }) }
	floats := func(n int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = FloatVal(rng.NormFloat64())
		}
		return out
	}
	strs := func(n, card int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = StringVal(fmt.Sprintf("s%d", rng.Intn(card)))
		}
		return out
	}
	full := chunkRows
	cases := []bulkCase{
		{name: "on edges", typ: Int, blocks: [][]Value{narrow(full), narrow(full), narrow(full)}},
		{name: "off an edge", typ: Int, blocks: [][]Value{narrow(100), narrow(full), narrow(full)}},
		{name: "short last", typ: Int, blocks: [][]Value{narrow(full), narrow(full), narrow(300)}},
		{name: "all equal", typ: Int, blocks: [][]Value{ints(full, func() int64 { return -7 }), narrow(full)}},
		{name: "stays wide", typ: Int, blocks: [][]Value{ints(full, rng.Int63), narrow(full), ints(full, rng.Int63)}},
		{name: "clone mid-chunk", typ: Int, clone: map[int]bool{1: true, 3: true},
			blocks: [][]Value{narrow(full + 500), narrow(full), narrow(524), narrow(full)}},
		{name: "clone on an edge", typ: Int, clone: map[int]bool{2: true, 3: true},
			blocks: [][]Value{narrow(full), narrow(full), narrow(full), narrow(full)}},
		{name: "floats", typ: Float, clone: map[int]bool{2: true},
			blocks: [][]Value{floats(full), floats(full), floats(full), floats(77)}},
		{name: "strings", typ: String, clone: map[int]bool{1: true, 2: true},
			blocks: [][]Value{strs(full, 50), strs(full, 70), strs(full, 90), strs(300, 120)}},
	}
	for _, bc := range cases {
		bulk, each := bc.run(true), bc.run(false)
		var rows []Value
		for _, blk := range bc.blocks {
			rows = append(rows, blk...)
		}
		for k := range each {
			b, e := bulk[k].Columns()[0], each[k].Columns()[0]
			if !reflect.DeepEqual(b, e) {
				t.Fatalf("%s, version %d: the column appended in blocks differs from the one appended value by value", bc.name, k)
			}
			if cb, ce := cap(b.ints.last.wide)+cap(b.floats.last.wide)+cap(b.codes.last.wide),
				cap(e.ints.last.wide)+cap(e.floats.last.wide)+cap(e.codes.last.wide); cb != ce {
				t.Fatalf("%s, version %d: open tail of capacity %d in blocks, %d value by value", bc.name, k, cb, ce)
			}
			if sb, se := bulk[k].StoredBytes(), each[k].StoredBytes(); sb != se {
				t.Fatalf("%s, version %d: StoredBytes %d in blocks, %d value by value", bc.name, k, sb, se)
			}
			for i := range b.Len() {
				if got := b.Value(i); !sameValue(got, rows[i]) {
					t.Fatalf("%s, version %d: row %d reads %v, appended %v", bc.name, k, i, got, rows[i])
				}
			}
		}
	}
}

// TestAppendCodesRefusesUnknownCodes: a code the dictionary does not hold
// panics before anything is appended.
func TestAppendCodesRefusesUnknownCodes(t *testing.T) {
	c := NewColumn("c", String)
	c.AppendCodes([]int32{c.Intern("a"), c.Intern("b"), 0})
	for _, codes := range [][]int32{{0, 2}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendCodes(%v) on a dictionary of 2 did not panic", codes)
				}
			}()
			c.AppendCodes(codes)
		}()
		if c.Len() != 3 {
			t.Fatalf("AppendCodes(%v) appended before it panicked: %d rows", codes, c.Len())
		}
	}
}

// TestClassOfAppendedValueOutsideSpan: an integer column counted densely
// holds classes for the span its chunks' bounds gave when it was counted. A
// row appended after classification whose value falls outside that span is in
// the unseen class (here −1), as a value a map never counted is.
func TestClassOfAppendedValueOutsideSpan(t *testing.T) {
	a := NewColumn("a", Int)
	fact := NewTable("fact", a)
	for r := 0; r < 1000; r++ {
		a.AppendInt(int64(r % 10))
		fact.EndRow()
	}
	db := MustNewDatabase("span", fact)
	freqs, err := db.ColumnFrequencies([]string{"a"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if freqs[0].t.dense == nil {
		t.Fatal("a column of ten values in a thousand rows was not counted densely")
	}
	classes := freqs[0].Classify(func(Value) int8 { return 1 }, -1)
	// The clone writes its rows into the open tail the classes' view reads.
	next := fact.CloneForAppend()
	for _, v := range []int64{3, 10, -1, math.MaxInt64, math.MinInt64} {
		next.AppendRow(IntVal(v))
		want := int8(-1)
		if v == 3 {
			want = 1
		}
		if got := classes.Class(next.NumRows() - 1); got != want {
			t.Errorf("appended %d: class %d, want %d", v, got, want)
		}
	}
}
