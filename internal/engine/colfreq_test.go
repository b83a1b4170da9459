package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dynsample/internal/bitmask"
)

// Property and fuzz tests for the column-frequency and classification
// kernel: over random small star schemas, everything it computes through
// typed slices and through the join must equal a naive per-row count through
// Accessor.Value.

// ghost is a value only ever stored in dimension rows no fact row references:
// it must never surface as a distinct value.
const ghost = "ghost"

// starGen draws random star schemas whose corner cases are dense: all three
// types, NaN and both zeros among the floats, duplicate dimension tuples,
// unreferenced dimension rows, and numeric domains wide enough to cross a
// small distinct limit in the middle of a scan. With huge set, an integer
// column may also span more than an array of counts may (denseIntSpan), or
// sit at either end of int64, so that it is counted in a map, or densely
// from a base the chunks' bounds reach by overflowing.
type starGen struct {
	rng   *rand.Rand
	huge  bool
	types []Type // view column types, in view order
}

// A column's values are drawn in one of these modes: a string or a float
// column takes every mode past narrow as wide.
const (
	narrow = iota
	wide
	spread  // integers over 10·denseIntSpan
	nearMax // integers at the top of int64
	extreme // integers at both ends of int64
)

// mode draws a column's mode.
func (g *starGen) mode() int {
	if g.huge {
		return g.rng.Intn(extreme + 1)
	}
	if g.rng.Intn(2) == 0 {
		return wide
	}
	return narrow
}

func (g *starGen) value(t Type, mode int) Value {
	switch t {
	case Int:
		if mode == narrow {
			return IntVal(int64(g.rng.Intn(4)))
		}
		switch k := int64(g.rng.Intn(40)); mode {
		case spread:
			return IntVal((k - 5) * denseIntSpan / 4)
		case nearMax:
			return IntVal(math.MaxInt64 - k%6)
		case extreme:
			return IntVal([]int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64}[k%3])
		default:
			return IntVal(k - 5)
		}
	case Float:
		if mode == narrow {
			return FloatVal([]float64{math.NaN(), 0, math.Copysign(0, -1), 1.5}[g.rng.Intn(4)])
		}
		return FloatVal(float64(g.rng.Intn(40)) / 4)
	default:
		return StringVal(fmt.Sprintf("s%d", g.rng.Intn(6)))
	}
}

func (g *starGen) columns(prefix string, n int) []*Column {
	cols := make([]*Column, n)
	for i := range cols {
		cols[i] = NewColumn(fmt.Sprintf("%s%d", prefix, i), Type(g.rng.Intn(3)))
	}
	return cols
}

// build returns a database of nRows fact rows. Every dimension's last row is
// a ghost row outside the foreign keys' range.
func (g *starGen) build(nRows int) *Database {
	var dims []DimJoin
	var fks []*Column
	modes := map[*Column]int{}
	for d := 0; d < 1+g.rng.Intn(3); d++ {
		cols := g.columns(fmt.Sprintf("d%d_", d), 1+g.rng.Intn(3))
		tbl := NewTable(fmt.Sprintf("dim%d", d), cols...)
		rows := 1 + g.rng.Intn(12)
		for _, c := range cols {
			modes[c] = g.mode()
		}
		for r := 0; r < rows; r++ {
			for _, c := range cols {
				c.Append(g.value(c.Type, modes[c]))
			}
			tbl.EndRow()
		}
		for _, c := range cols {
			if c.Type == String {
				c.AppendString(ghost)
			} else {
				c.Append(g.value(c.Type, wide))
			}
		}
		tbl.EndRow()
		fk := NewColumn(fmt.Sprintf("fk%d", d), Int)
		// Reference only a prefix of the real rows, leaving others unused.
		used := 1 + g.rng.Intn(rows)
		for r := 0; r < nRows; r++ {
			fk.AppendInt(int64(g.rng.Intn(used)))
		}
		dims = append(dims, DimJoin{Table: tbl, FK: fk.Name})
		fks = append(fks, fk)
	}
	factCols := g.columns("f", 1+g.rng.Intn(3))
	for _, c := range factCols {
		m := g.mode()
		for r := 0; r < nRows; r++ {
			c.Append(g.value(c.Type, m))
		}
	}
	db := MustNewDatabase("fuzz", NewTable("fact", append(factCols, fks...)...), dims...)
	for _, name := range db.Columns() {
		t, _ := db.ColumnType(name)
		g.types = append(g.types, t)
	}
	return db
}

// viewRow draws one row in view column order for Appender.Append.
func (g *starGen) viewRow() []Value {
	row := make([]Value, len(g.types))
	for i, t := range g.types {
		mode := wide
		if g.huge {
			mode = g.mode()
		}
		row[i] = g.value(t, mode)
	}
	return row
}

// canon renders a value so that values equal under == render equally: both
// zeros as one, every NaN as "NaN" (NaNs are distinct from each other, which
// the multiset comparison below preserves: n NaN rows are n entries).
func canon(v Value) string {
	if v.T == Float && v.F == 0 {
		return "0"
	}
	return v.String()
}

func canonCounts(vcs []ValueCount) []string {
	out := make([]string, len(vcs))
	for i, vc := range vcs {
		out[i] = fmt.Sprintf("%s:%d", canon(vc.Value), vc.Count)
	}
	sort.Strings(out)
	return out
}

// naiveCounts is the old frequency scan: one Value-boxing map increment per
// row.
func naiveCounts(t *testing.T, db *Database, name string) []ValueCount {
	t.Helper()
	acc, err := db.Accessor(name)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[Value]int64)
	for r := 0; r < db.NumRows(); r++ {
		counts[acc.Value(r)]++
	}
	out := make([]ValueCount, 0, len(counts))
	for v, c := range counts {
		out = append(out, ValueCount{Value: v, Count: c})
	}
	return out
}

// testClass is an arbitrary value -> class assignment. NaN gets no class, as
// it can have none in any lookup keyed by value.
func testClass(v Value) int8 {
	var h int64
	switch v.T {
	case Int:
		h = v.I
	case Float:
		if v.F != v.F {
			return -1
		}
		h = int64(v.F * 4)
	default:
		h = int64(len(v.S)) + int64(v.S[len(v.S)-1])
	}
	return int8((h%3+3)%3) - 1 // -1, 0 or 1
}

// checkKernel compares everything the kernel computes for db against the
// naive per-row evaluation.
func checkKernel(t *testing.T, db *Database, limit, workers int) {
	t.Helper()
	names := db.Columns()
	freqs, err := db.ColumnFrequencies(names, limit, workers)
	if err != nil {
		t.Fatal(err)
	}
	var classes []*ColumnClasses
	var classed []string
	for i, name := range names {
		want := naiveCounts(t, db, name)
		if over := limit > 0 && len(want) > limit; freqs[i].Over != over {
			t.Fatalf("%s: Over=%v with %d distinct values, limit %d", name, freqs[i].Over, len(want), limit)
		}
		if freqs[i].Over {
			if freqs[i].Counts() != nil {
				t.Fatalf("%s: counts kept past the limit", name)
			}
			continue
		}
		got := freqs[i].Counts()
		if g, w := canonCounts(got), canonCounts(want); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s (workers=%d): counts through the kernel\n%v\nnaive\n%v", name, workers, g, w)
		}
		for _, vc := range got {
			if vc.Value.S == ghost {
				t.Fatalf("%s: unreferenced dimension value counted %d times", name, vc.Count)
			}
		}
		classes = append(classes, freqs[i].Classify(testClass, -1))
		classed = append(classed, name)

		// DistinctValues: same multiset, most frequent first, ties by value.
		vcs, err := db.DistinctValues(name)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canonCounts(vcs), canonCounts(want); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: DistinctValues %v, naive %v", name, g, w)
		}
		ordered := true // a NaN compares false both ways: no sort order is defined
		for _, vc := range vcs {
			ordered = ordered && vc.Value.F == vc.Value.F
		}
		for j := 1; ordered && j < len(vcs); j++ {
			a, b := vcs[j-1], vcs[j]
			if a.Count < b.Count || (a.Count == b.Count && b.Value.Less(a.Value)) {
				t.Fatalf("%s: DistinctValues out of order at %d: %v then %v", name, j, a, b)
			}
		}
	}

	// Classification: per column and as row bits — of every row in one call,
	// across block edges, and of each row alone — against the class of the
	// row's boxed value.
	rc := NewRowClassifier(classes, true)
	w := rc.Words()
	all, one := make([]uint64, db.NumRows()*w), make([]uint64, w)
	rc.BlockBits(0, db.NumRows(), all)
	for r := 0; r < db.NumRows(); r++ {
		bits := all[r*w : (r+1)*w]
		if rc.BlockBits(r, 1, one); fmt.Sprint(one) != fmt.Sprint(bits) {
			t.Fatalf("row %d: bits %x alone, %x in the table's block", r, one, bits)
		}
		for i, name := range classed {
			acc, _ := db.Accessor(name)
			want := testClass(acc.Value(r))
			if got := classes[i].Class(r); got != want {
				t.Fatalf("%s row %d: class %d, naive %d", name, r, got, want)
			}
			if set := bits[i/64]&(1<<(uint(i)%64)) != 0; set != (want >= 0) {
				t.Fatalf("%s row %d: bit %v for class %d", name, r, set, want)
			}
		}
	}
}

func fuzzColumnFrequencies(t *testing.T, seed int64, nRows uint16, limit uint8, huge bool) {
	g := &starGen{rng: rand.New(rand.NewSource(seed)), huge: huge}
	rows := int(nRows)%300 + 1
	db := g.build(rows)
	for _, workers := range []int{0, 3} {
		checkKernel(t, db, int(limit)%16, workers)
	}
	// Pin this version and grow the next: new dimension rows, new dictionary
	// entries and new fact rows must stay invisible to the pinned one.
	app, err := NewAppender(db)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]Value
	for i := 0; i < 1+g.rng.Intn(40); i++ {
		batch = append(batch, g.viewRow())
	}
	next, err := app.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, db, int(limit)%16, 2)
	checkKernel(t, next, int(limit)%16, 2)
	checkGrown(t, db, next, int(limit)%16)
}

// checkGrown classifies db's counted columns, grows the classifier to next, a
// later version, and holds the bits of the appended rows, and every row's
// class, to the class of the row's boxed value under the never-counted rule:
// a value db's count did not see is in the unseen class. Classes over the set
// of counted values (ColumnView.Classes) hold to the same rule.
func checkGrown(t *testing.T, db, next *Database, limit int) {
	t.Helper()
	const unseen = 1
	freqs, err := db.ColumnFrequencies(db.Columns(), limit, 2)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var counted []map[Value]struct{}
	var byCount, byKnown []*ColumnClasses
	for _, f := range freqs {
		if f.Over {
			continue
		}
		set := make(map[Value]struct{})
		for _, vc := range f.Counts() {
			set[vc.Value] = struct{}{}
		}
		names, counted = append(names, f.View.Name), append(counted, set)
		byCount = append(byCount, f.Classify(testClass, unseen))
		byKnown = append(byKnown, f.View.Classes(set, -1, unseen))
	}
	for _, variant := range []struct {
		cols  []*ColumnClasses
		class func(Value) int8
	}{{byCount, testClass}, {byKnown, func(Value) int8 { return -1 }}} {
		rc := NewRowClassifier(variant.cols, false)
		if err := rc.Grow(next); err != nil {
			t.Fatal(err)
		}
		w, lo := rc.Words(), db.NumRows()
		bits := make([]uint64, (next.NumRows()-lo)*w)
		rc.BlockBits(lo, next.NumRows()-lo, bits)
		for r := 0; r < next.NumRows(); r++ {
			for i, name := range names {
				acc, _ := next.Accessor(name)
				v, want := acc.Value(r), int8(unseen)
				if _, ok := counted[i][v]; ok {
					want = variant.class(v)
				}
				if got := variant.cols[i].Class(r); got != want {
					t.Fatalf("%s row %d (%s): class %d grown, %d by the rule", name, r, canon(v), got, want)
				}
				if r < lo {
					continue
				}
				if set := bits[(r-lo)*w+i/64]&(1<<(uint(i)%64)) != 0; set != (want >= 0) {
					t.Fatalf("%s appended row %d (%s): bit %v for class %d", name, r, canon(v), set, want)
				}
			}
		}
	}
}

// FuzzColumnFrequencies: through-the-join counts, the distinct limit,
// DistinctValues order and per-row classes equal the naive per-row
// evaluation on random star schemas — with huge, over integer columns counted
// in a map as well as densely.
func FuzzColumnFrequencies(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint16(37*seed+5), uint8(seed), seed >= 8)
	}
	f.Fuzz(fuzzColumnFrequencies)
}

// TestColumnFrequenciesShardedRows covers what the small fuzz schemas do
// not: a fact table long enough to be row-sharded, with numeric columns
// whose shards stay under the limit individually but cross it merged — one
// counted densely, one spread past denseIntSpan into a map.
func TestColumnFrequenciesShardedRows(t *testing.T) {
	const n = 3*ScanShardRows + 17
	a, b, c := NewColumn("a", Int), NewColumn("b", String), NewColumn("c", Int)
	fact := NewTable("fact", a, b, c)
	for r := 0; r < n; r++ {
		a.AppendInt(int64(r / ScanShardRows * 10)) // one value per shard
		b.AppendString(fmt.Sprintf("v%d", r%7))
		c.AppendInt(int64(r/ScanShardRows) << 40)
		fact.EndRow()
	}
	db := MustNewDatabase("sharded", fact)
	freqs, err := db.ColumnFrequencies([]string{"a", "c"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if freqs[0].t.dense == nil || freqs[1].t.ints == nil {
		t.Fatal("a should be counted densely and c in a map")
	}
	for _, workers := range []int{0, 1, 4} {
		checkKernel(t, db, 0, workers)
		checkKernel(t, db, 3, workers) // a and c have 4 distinct values, ≤ 2 per shard at 4 workers
	}
}

// TestFlattenMatchesRowAtATime: the column-at-a-time gather (Flatten, and a
// fact slice's fact columns and Flat) serialises to the same bytes as
// appending the sampled rows cell by cell — same values, same dictionary
// first-appearance order.
func TestFlattenMatchesRowAtATime(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := &starGen{rng: rand.New(rand.NewSource(seed))}
		db := g.build(60)
		var rows []int
		for r := 0; r < db.NumRows(); r++ {
			if g.rng.Intn(3) == 0 {
				rows = append(rows, r)
			}
		}
		masks := make([]bitmask.Mask, len(rows))
		weights := make([]float64, len(rows))
		for i := range rows {
			masks[i] = maskOf(3, i%3)
			weights[i] = float64(i + 1)
		}

		var cols []*Column
		for _, name := range db.Columns() {
			ct, _ := db.ColumnType(name)
			cols = append(cols, NewColumn(name, ct))
		}
		want := NewTable("flat", cols...)
		for _, r := range rows {
			for _, c := range cols {
				acc, _ := db.Accessor(c.Name)
				c.Append(acc.Value(r))
			}
			want.EndRow()
		}
		want.addSampleColumns(masks, weights)
		got := db.Flatten("flat", rows, masks, weights)
		if !bytes.Equal(tableBytes(t, got), tableBytes(t, want)) {
			t.Fatalf("seed %d: Flatten differs from the row-at-a-time copy", seed)
		}

		// A fact slice answers every cell like the flat copy, and flattens
		// back to Flatten's table byte for byte.
		rdb := maskedSlice(db, "flat", rows, masks, weights)
		for _, c := range cols {
			acc, _ := rdb.Accessor(c.Name)
			for i := range rows {
				if g, w := canon(acc.Value(i)), canon(c.Value(i)); g != w {
					t.Fatalf("seed %d: fact slice %s row %d = %s, flat %s", seed, c.Name, i, g, w)
				}
			}
		}
		if !bytes.Equal(tableBytes(t, rdb.Flat("flat")), tableBytes(t, got)) {
			t.Fatalf("seed %d: the flattened fact slice differs from Flatten's table", seed)
		}
	}
}

func tableBytes(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(tbl, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
