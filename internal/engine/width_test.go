package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// widthEdgeChunks are integer chunks at the edges of the stored widths: each
// holds min and min+span (the sum taken in uint64), so its span is exactly
// span, and must be sealed at width bits an offset, 0 meaning the values
// themselves.
var widthEdgeChunks = []struct {
	name  string
	min   int64
	span  uint64
	width uint8
}{
	{"all equal", 42, 0, 1},
	{"span 1", -1, 1, 1},
	{"span 2", 1 << 50, 2, 2},
	{"span 7", -3, 7, 3},
	{"span 8", -3, 8, 4},
	{"span 255", -100, 255, 8},
	{"span 256", -100, 256, 9},
	{"span 2047", 5, 2047, 11},
	{"span 65535", 1 << 40, 65535, 16},
	{"span 65536", -(1 << 40), 65536, 17},
	{"span 2^31-1", 9, 1<<31 - 1, 31},
	{"span 2^31", 9, 1 << 31, 32},
	{"span 2^32-1", -7, 1<<32 - 1, 32},
	{"span 2^32", -7, 1 << 32, 0},
	{"from MinInt64", math.MinInt64, 1000, 10},
	{"MinInt64 to MaxInt64", math.MinInt64, math.MaxUint64, 0}, // the span overflows int64
	{"up to MaxInt64", math.MaxInt64 - 200, 200, 8},
}

// widthEdgeInt is the value at row r of a column whose chunk k is case
// k mod len(widthEdgeChunks): min, min+span, and a few values between.
func widthEdgeInt(rng *rand.Rand, r int) int64 {
	c := widthEdgeChunks[r>>chunkShift%len(widthEdgeChunks)]
	offs := []uint64{0, c.span, c.span / 2, min(c.span, 1), c.span - min(c.span, 1)}
	off := offs[rng.Intn(len(offs))]
	if o := r & (chunkRows - 1); o < 2 {
		off = offs[o]
	}
	return int64(uint64(c.min) + off)
}

// widthEdgeTable is a flat table whose integer column walks widthEdgeChunks
// over and over, whose string column's dictionary grows by a string a row from
// the third chunk on — every chunk also holds code 0, so the codes' span
// crosses 256 and then 65 536 mid-table — and whose floats are kernelFloats,
// beside a measure to sum (a sum over two NaN payloads has whichever the
// compiler's operand order leaves). vals holds what went in, row by row.
func widthEdgeTable(rng *rand.Rand) (tbl *Table, vals [][]Value) {
	n := (1<<16)/(chunkRows-1)*chunkRows + 4*chunkRows + 300
	// Named as kernelQuery wants its columns.
	edge, grow, f, low := NewColumn("i_edge", Int), NewColumn("s_high", String), NewColumn("f", Float), NewColumn("s_mid", String)
	tbl = NewTable("widths", edge, grow, f, low, NewColumn("m", Float))
	for r := 0; r < n; r++ {
		s := fmt.Sprint("g", r)
		if r < 2*chunkRows || r&(chunkRows-1) == 0 {
			s = fmt.Sprint("g", r%200)
		}
		row := []Value{IntVal(widthEdgeInt(rng, r)), StringVal(s), FloatVal(kernelFloats[rng.Intn(len(kernelFloats))]), StringVal(fmt.Sprint("l", rng.Intn(4))), FloatVal(rng.NormFloat64())}
		tbl.AppendRow(row...)
		vals = append(vals, row)
	}
	return tbl, vals
}

func requireCells(t *testing.T, label string, tbl *Table, rows []int, vals [][]Value) {
	t.Helper()
	if tbl.NumRows() != len(rows) {
		t.Fatalf("%s: %d rows, want %d", label, tbl.NumRows(), len(rows))
	}
	for i, r := range rows {
		for j, c := range tbl.Columns() {
			if got := c.Value(i); !sameValue(got, vals[r][j]) {
				t.Fatalf("%s: row %d column %q = %v, want %v", label, i, c.Name, got, vals[r][j])
			}
		}
	}
}

// TestWidthEdges: chunks at the edges of every stored width hold the values
// that went in — as built by appends, gathered, decoded from the binary
// format and streamed — are sealed at the width their span needs, and read
// the same through the kernel, in place, decoded and gathered through a
// foreign key, as through the row-at-a-time reference.
func TestWidthEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl, vals := widthEdgeTable(rng)
	n := tbl.NumRows()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	requireCells(t, "appended", tbl, all, vals)

	edge, grow := tbl.Column("i_edge"), tbl.Column("s_high")
	for k := range edge.ints.sealed {
		if c, want := &edge.ints.sealed[k], widthEdgeChunks[k%len(widthEdgeChunks)]; c.width != want.width {
			t.Errorf("chunk %d (%s) sealed at width %d, want %d", k, want.name, c.width, want.width)
		}
	}
	widths := map[uint8]int{}
	for k := range grow.codes.sealed {
		widths[grow.codes.sealed[k].width]++
	}
	if len(grow.dict) <= 1<<16 || widths[8] != 2 || widths[16] == 0 || widths[17] == 0 || widths[0] != 0 {
		t.Errorf("%d strings, code chunks by width %v: want two at 8 bits, then one more bit as the dictionary doubles, up to 17", len(grow.dict), widths)
	}
	for k, c := range tbl.Column("f").floats.sealed {
		if c.width != 0 {
			t.Fatalf("float chunk %d packed at width %d", k, c.width)
		}
	}
	if tail := edge.ints.last; tail.width != 0 || len(tail.wide) != chunkRows {
		t.Errorf("open tail: width %d, capacity %d", tail.width, len(tail.wide))
	}
	// The 65 000 one-row strings aside, whose entries the logical size leaves out.
	if stored, logical := tbl.StoredBytes()-int64(len(grow.dict))*dictEntryBytes, tbl.ApproxBytes(); stored >= logical {
		t.Errorf("StoredBytes %d without s_high's dictionary entries, ApproxBytes %d: nothing was packed", stored, logical)
	}

	// Gathered (every chunk sealed, the last short), in order and shuffled.
	db := MustNewDatabase("DB", tbl)
	requireCells(t, "flattened", db.Flat("flat"), all, vals)
	some := rng.Perm(n)[:3*chunkRows+11]
	requireCells(t, "gathered", flatten(db, "some", some, nil), some, vals)

	// The binary format: same cells back, same bytes again, streamed or not.
	enc := tableBytes(t, tbl)
	back, err := ReadBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	requireCells(t, "decoded", back, all, vals)
	if !bytes.Equal(tableBytes(t, back), enc) {
		t.Fatal("table changed across a binary round trip")
	}
	var streamed bytes.Buffer
	if err := db.WriteRowsBinary(&streamed, "some", chunkRows-5, n-7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), tableBytes(t, flatten(db, "some", all[chunkRows-5:n-7], nil))) {
		t.Fatal("streamed rows differ from the flattened table's bytes")
	}
	// A decoded table ends in a short sealed chunk; appending reopens it.
	grown := back.CloneForAppend()
	grown.AppendRow(vals[0]...)
	requireCells(t, "appended onto a decoded table", grown, append(all[:n:n], 0), vals)
	requireCells(t, "the decoded table after the append", back, all, vals)

	// The same columns as a dimension, gathered through a foreign key.
	fk := NewColumn("fk", Int)
	for r := 0; r < 20_000; r++ {
		fk.AppendInt(int64(rng.Intn(n)))
	}
	star := MustNewDatabase("star", NewTable("fact", fk), DimJoin{Table: tbl, FK: "fk"})
	cols := []string{"i_edge", "s_high", "f", "s_mid"}
	for _, ks := range []kernelSource{{"flat", tbl, cols, []string{"m", "i_edge", "s_mid"}}, {"star", star, cols, []string{"m", "i_edge"}}} {
		for i := 0; i < 10; i++ {
			q, opt := kernelQuery(rng, ks), kernelOptions(rng, ks.src.NumRows())
			label := fmt.Sprintf("%s #%d: %s %+v", ks.name, i, q, opt)
			got, err := ExecuteCtx(context.Background(), ks.src, q, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameResult(t, label, referenceExecute(t, ks.src, q, opt), got)
		}
	}
	for _, workers := range []int{1, 3} {
		checkKernel(t, star, 0, workers)
		checkKernel(t, db, 0, workers)
	}
}

// TestSetRowRepacksUnderPinnedReaders: SetRow into a packed chunk rebuilds it
// — at the same width when the new value fits, wider when it does not — for
// the version that writes, while readers of the version it was cloned from
// see the rows they were published with, before, during and after.
func TestSetRowRepacksUnderPinnedReaders(t *testing.T) {
	const n = 3*chunkRows + 100
	id, f, s := NewColumn("id", Int), NewColumn("f", Float), NewColumn("s", String)
	pinned := NewTable("t", id, f, s)
	pinned.addColumn(NewColumn(WeightColumn, Float)) // a sample table: the readers read its RowWeight too
	sampleCols := func(i int) []Value { return []Value{FloatVal(float64(1 + i%5))} }
	row := func(i int) []Value {
		return append([]Value{IntVal(int64(i % 200)), FloatVal(kernelFloats[i%len(kernelFloats)]), StringVal(fmt.Sprint("s", i%7))}, sampleCols(i)...)
	}
	var vals [][]Value
	for i := 0; i < n; i++ {
		pinned.AppendRow(row(i)...)
		vals = append(vals, row(i))
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	requireCells(t, "before", pinned, all, vals)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < n; i++ {
					for j, c := range pinned.Columns() {
						if got := c.Value(i); !sameValue(got, vals[i][j]) {
							t.Errorf("pinned version: row %d column %q = %v during the writes", i, c.Name, got)
							return
						}
					}
					if pinned.RowWeight(i) != vals[i][3].F {
						t.Errorf("pinned version: row %d weight %g during the writes", i, pinned.RowWeight(i))
						return
					}
				}
			}
		}()
	}

	upd := pinned.CloneForAppend()
	want := append([][]Value(nil), vals...)
	set := func(i int, v ...Value) {
		v = append(v, sampleCols(i+4)...) // another weight
		upd.SetRow(i, v...)
		want[i] = v
	}
	set(chunkRows+5, IntVal(7), FloatVal(math.Copysign(0, -1)), StringVal("s3")) // fits the chunk's 8 bits
	if w := upd.cols[0].ints.sealed[1].width; w != 8 {
		t.Errorf("a value inside the chunk's span re-packed it at width %d", w)
	}
	set(chunkRows+6, IntVal(1<<20), FloatVal(math.NaN()), StringVal("new string")) // needs 21 bits
	set(chunkRows+7, IntVal(-3), FloatVal(1), StringVal("s0"))                     // a new minimum
	if c := upd.cols[0].ints.sealed[1]; c.width != 21 || c.min != -3 {
		t.Errorf("after 1<<20 and -3 the chunk has width %d, min %d", c.width, c.min)
	}
	set(2*chunkRows, IntVal(math.MinInt64), FloatVal(2), StringVal("s1"))
	set(2*chunkRows+1, IntVal(math.MaxInt64), FloatVal(3), StringVal("s2")) // the span overflows int64
	if w := upd.cols[0].ints.sealed[2].width; w != 0 {
		t.Errorf("MinInt64 and MaxInt64 in one chunk: width %d, want the values themselves", w)
	}
	set(n-1, IntVal(1<<40), FloatVal(4), StringVal("tail")) // in the open tail
	for i := n; i < n+2*chunkRows; i++ {                    // and appends seal that tail
		upd.AppendRow(row(i)...)
		want = append(want, row(i))
	}
	close(stop)
	readers.Wait()

	requireCells(t, "the pinned version after the writes", pinned, all, vals)
	for i := n; i < len(want); i++ {
		all = append(all, i)
	}
	requireCells(t, "the written version", upd, all, want)
	if a, b := chunkAddr(pinned.cols[0], 0), chunkAddr(upd.cols[0], 0); a != b {
		t.Error("SetRow copied a chunk it did not write")
	}
}

// TestWidthSeedsCoverEveryWidth: the fuzz seeds decode into what they are
// there for.
func TestWidthSeedsCoverEveryWidth(t *testing.T) {
	want := map[string]uint8{"i1": 1, "i3": 3, "i8": 8, "i11": 11, "i16": 16, "i32": 32, "i64": 0, "s8": 8, "s9": 9, "s17": 17}
	for _, tbl := range widthSeedTables() {
		back, err := ReadBinary(bytes.NewReader(tableBytes(t, tbl)))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range back.Columns() {
			width := c.ints.last.width
			if c.Type == String {
				width = c.codes.last.width
			}
			if width != want[c.Name] {
				t.Errorf("column %q decoded with its last chunk at width %d, want %d", c.Name, width, want[c.Name])
			}
		}
	}
}
