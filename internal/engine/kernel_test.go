package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dynsample/internal/randx"
)

// The differential test of the block kernel against referenceScanRange: every
// accumulator, key Value, flag and counter must agree bit for bit.

// kernelFloats are the float group/predicate values worth meeting: both
// zeros, two NaN payloads, infinities and ordinary values.
var kernelFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
	math.Inf(1), math.Inf(-1), 1.5, -2.25, 3, 1e9,
}

// kernelColumns appends a column set under the given name prefix: strings of
// low and high cardinality (two high ones together leave the dense regime),
// ints — one of them walking the width edges chunk by chunk (width_test.go)
// — and floats drawn from kernelFloats.
func kernelColumns(rng *rand.Rand, prefix string, n int) []*Column {
	sLow := NewColumn(prefix+"s_low", String)
	sMid := NewColumn(prefix+"s_mid", String)
	sHigh := NewColumn(prefix+"s_high", String)
	iLow := NewColumn(prefix+"i_low", Int)
	iWide := NewColumn(prefix+"i_wide", Int)
	iEdge := NewColumn(prefix+"i_edge", Int)
	f := NewColumn(prefix+"f", Float)
	for r := 0; r < n; r++ {
		sLow.AppendString(fmt.Sprintf("l%d", rng.Intn(5)))
		sMid.AppendString(fmt.Sprintf("m%d", rng.Intn(300)))
		sHigh.AppendString(fmt.Sprintf("h%d", rng.Intn(400)))
		iLow.AppendInt(int64(rng.Intn(7)) - 3)
		iWide.AppendInt(rng.Int63() - rng.Int63())
		iEdge.AppendInt(widthEdgeInt(rng, r))
		f.AppendFloat(kernelFloats[rng.Intn(len(kernelFloats))])
	}
	return []*Column{sLow, sMid, sHigh, iLow, iWide, iEdge, f}
}

func kernelWeights(rng *rand.Rand, n int) []float64 {
	weights := make([]float64, n)
	for r := range weights {
		weights[r] = 1 + rng.Float64()*9
	}
	return weights
}

type kernelSource struct {
	name    string
	src     Source
	columns []string // group/predicate columns
	sums    []string // SUM columns: float, int and (summing as zero) string
}

// kernelSources builds the three source shapes: a flat table with weights, a
// star database read through foreign keys, and a weighted fact slice sample
// of it — each longer than three shards, the last shard ragged.
func kernelSources(t *testing.T, seed int64) []kernelSource {
	rng := rand.New(rand.NewSource(seed))
	n := 3*ScanShardRows + 1000 + rng.Intn(3000)

	measures := func(prefix string, n int) []*Column {
		mf := NewColumn(prefix+"m_f", Float)
		mi := NewColumn(prefix+"m_i", Int)
		for r := 0; r < n; r++ {
			mf.AppendFloat(rng.NormFloat64() * 100)
			mi.AppendInt(int64(rng.Intn(2000)) - 1000)
		}
		return []*Column{mf, mi}
	}
	names := func(cols []*Column) []string {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = c.Name
		}
		return out
	}

	flatCols := kernelColumns(rng, "", n)
	flat := NewTable("flat", append(flatCols, measures("", n)...)...)
	flat.addWeights(kernelWeights(rng, n))

	factCols := kernelColumns(rng, "f_", n)
	d1Cols := kernelColumns(rng, "d1_", 700)
	d2Cols := kernelColumns(rng, "d2_", 5000)
	fk1, fk2 := NewColumn("fk1", Int), NewColumn("fk2", Int)
	for r := 0; r < n; r++ {
		fk1.AppendInt(int64(rng.Intn(700)))
		fk2.AppendInt(int64(rng.Intn(5000)))
	}
	fact := NewTable("fact", append(append(factCols, measures("f_", n)...), fk1, fk2)...)
	d1 := NewTable("d1", append(d1Cols, measures("d1_", 700)...)...)
	d2 := NewTable("d2", d2Cols...)
	db := MustNewDatabase("star", fact, DimJoin{Table: d1, FK: "fk1"}, DimJoin{Table: d2, FK: "fk2"})
	starCols := append(append(names(factCols), names(d1Cols)...), names(d2Cols)...)

	rows := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if rng.Intn(10) != 0 {
			rows = append(rows, r)
		}
	}
	sample := db.FactSlice("sample", rows, kernelWeights(rng, len(rows)))

	return []kernelSource{
		{"flat", flat, names(flatCols), []string{"m_f", "m_i", "s_low"}},
		{"star", db, starCols, []string{"f_m_f", "f_m_i", "d1_m_f", "d1_m_i", "d2_s_mid"}},
		{"fact slice", sample, starCols, []string{"f_m_f", "d1_m_i"}},
	}
}

// kernelLiteral draws a predicate literal for a column of type typ: usually a
// value the column can hold, sometimes one of another type.
func kernelLiteral(rng *rand.Rand, typ Type) Value {
	if rng.Intn(6) == 0 {
		typ = Type(rng.Intn(3))
	}
	switch typ {
	case String:
		return StringVal(string("lmh"[rng.Intn(3)]) + fmt.Sprint(rng.Intn(12)))
	case Int:
		return IntVal(int64(rng.Intn(9)) - 4)
	default:
		return FloatVal(kernelFloats[rng.Intn(len(kernelFloats))])
	}
}

func kernelPredicate(rng *rand.Rand, src Source, col string) Predicate {
	v, _ := src.View(col)
	lit := func() Value { return kernelLiteral(rng, v.Type) }
	switch rng.Intn(4) {
	case 0:
		vals := make([]Value, rng.Intn(5)) // sometimes an empty IN
		for i := range vals {
			vals[i] = lit()
		}
		return NewIn(col, vals...)
	case 1:
		return NewRange(col, lit(), lit())
	default:
		return NewCmp(col, CmpOp(rng.Intn(6)), lit())
	}
}

func kernelQuery(rng *rand.Rand, ks kernelSource) *Query {
	q := &Query{}
	for _, i := range rng.Perm(len(ks.columns))[:rng.Intn(5)] { // zero to four group columns
		q.GroupBy = append(q.GroupBy, ks.columns[i])
	}
	if rng.Intn(5) == 0 {
		// Two wide string columns: one key word, too many keys to index.
		q.GroupBy = nil
		for _, c := range ks.columns {
			if strings.HasSuffix(c, "s_mid") || strings.HasSuffix(c, "s_high") {
				q.GroupBy = append(q.GroupBy, c)
			}
		}
		rng.Shuffle(len(q.GroupBy), func(i, j int) { q.GroupBy[i], q.GroupBy[j] = q.GroupBy[j], q.GroupBy[i] })
		q.GroupBy = q.GroupBy[:2]
	}
	q.Aggs = []Aggregate{{Kind: Count}}
	for _, i := range rng.Perm(len(ks.sums))[:rng.Intn(3)] {
		q.Aggs = append(q.Aggs, Aggregate{Kind: Sum, Col: ks.sums[i]})
	}
	if rng.Intn(3) == 0 { // a SUM first, so COUNT is not always aggregate 0
		q.Aggs[0], q.Aggs[len(q.Aggs)-1] = q.Aggs[len(q.Aggs)-1], q.Aggs[0]
	}
	for p := rng.Intn(3); p > 0; p-- {
		q.Where = append(q.Where, kernelPredicate(rng, ks.src, ks.columns[rng.Intn(len(ks.columns))]))
	}
	return q
}

// kernelOptions draws scan options for a source of n rows.
func kernelOptions(rng *rand.Rand, n int) ExecOptions {
	opt := ExecOptions{MarkExact: rng.Intn(2) == 0, Workers: []int{1, 2, 7}[rng.Intn(3)]}
	if rng.Intn(2) == 0 {
		opt.Scale = 0.5 + rng.Float64()*40
	}
	switch rng.Intn(4) {
	case 0:
		opt.MaxRows = 1 + rng.Intn(n) // mid-shard and mid-block
	case 1:
		opt.MaxRows = ScanShardRows + scanBlockRows*rng.Intn(4)
	}
	return opt
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameResult fails unless got equals want in every group, key Value,
// accumulator, flag and counter, floats compared by bit pattern.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.NumGroups() != got.NumGroups() {
		t.Fatalf("%s: %d groups, want %d", label, got.NumGroups(), want.NumGroups())
	}
	if want.RowsScanned != got.RowsScanned || want.RowsMatched != got.RowsMatched {
		t.Fatalf("%s: scanned/matched (%d,%d), want (%d,%d)", label,
			got.RowsScanned, got.RowsMatched, want.RowsScanned, want.RowsMatched)
	}
	for _, k := range want.Keys() {
		wg, gg := want.Group(k), got.Group(k)
		if gg == nil {
			t.Fatalf("%s: group %q missing", label, k)
		}
		if len(wg.Key) != len(gg.Key) {
			t.Fatalf("%s: group %q: key has %d values, want %d", label, k, len(gg.Key), len(wg.Key))
		}
		for i, wv := range wg.Key {
			if gv := gg.Key[i]; wv.T != gv.T || wv.I != gv.I || wv.S != gv.S || !sameBits(wv.F, gv.F) {
				t.Fatalf("%s: group %q: key value %d is %#v, want %#v", label, k, i, gv, wv)
			}
		}
		if wg.Exact != gg.Exact || wg.RawRows != gg.RawRows {
			t.Fatalf("%s: group %q: Exact/RawRows (%v,%d), want (%v,%d)", label, k, gg.Exact, gg.RawRows, wg.Exact, wg.RawRows)
		}
		for i := range wg.Vals {
			if !sameBits(wg.Vals[i], gg.Vals[i]) || !sameBits(wg.RawSum[i], gg.RawSum[i]) ||
				!sameBits(wg.RawSumSq[i], gg.RawSumSq[i]) || !sameBits(wg.VarAcc[i], gg.VarAcc[i]) {
				t.Fatalf("%s: group %q aggregate %d: %+v, want %+v", label, k, i, gg, wg)
			}
		}
	}
}

func TestKernelMatchesReferenceScan(t *testing.T) {
	seeds, perSource := []int64{1, 2}, 60
	if testing.Short() {
		seeds, perSource = seeds[:1], 30
	}
	var dense, hashed, multiWord int
	for _, seed := range seeds {
		for _, ks := range kernelSources(t, seed) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(len(ks.name))))
			for i := 0; i < perSource; i++ {
				q := kernelQuery(rng, ks)
				opt := kernelOptions(rng, ks.src.NumRows())
				label := fmt.Sprintf("seed %d %s #%d: %s %+v", seed, ks.name, i, q, opt)

				got, err := ExecuteCtx(context.Background(), ks.src, q, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := referenceExecute(t, ks.src, q, opt)
				requireSameResult(t, label, want, got)

				b, err := bindQuery(ks.src, q)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case b.dense > 0:
					dense++
				case b.words > 1:
					multiWord++
				default:
					hashed++
				}
			}
		}
	}
	// The generator must have exercised both regimes (and multi-word keys),
	// or the agreement above says less than it seems to.
	if dense < 10 || hashed < 10 || multiWord < 10 {
		t.Fatalf("coverage: %d dense, %d hashed, %d multi-word", dense, hashed, multiWord)
	}
}

// TestKernelEdgeSources: the shapes a random draw rarely produces.
func TestKernelEdgeSources(t *testing.T) {
	check := func(label string, src Source, q *Query, opt ExecOptions) *Result {
		t.Helper()
		got, err := ExecuteCtx(context.Background(), src, q, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameResult(t, label, referenceExecute(t, src, q, opt), got)
		return got
	}

	// Zero rows, with and without group columns.
	empty := NewTable("empty", NewColumn("s", String), NewColumn("x", Float))
	check("zero rows", empty, &Query{GroupBy: []string{"s"}, Aggs: []Aggregate{{Kind: Sum, Col: "x"}}}, ExecOptions{})
	check("zero rows, no group-by", empty, &Query{Aggs: []Aggregate{{Kind: Count}}}, ExecOptions{MarkExact: true})

	// No group-by over rows no predicate admits: no group at all, not an
	// empty one.
	rng := rand.New(rand.NewSource(5))
	n := ScanShardRows + 77
	cols := kernelColumns(rng, "", n)
	tbl := NewTable("t", cols...)
	res := check("nothing matches", tbl, &Query{Aggs: []Aggregate{{Kind: Count}}, Where: []Predicate{NewIn("i_low")}}, ExecOptions{})
	if res.NumGroups() != 0 || res.RowsScanned != int64(n) || res.RowsMatched != 0 {
		t.Fatalf("nothing matches: %d groups, scanned %d, matched %d", res.NumGroups(), res.RowsScanned, res.RowsMatched)
	}

	// Five string columns whose dictionary sizes multiply past 2^64: the key
	// spills into a second word.
	wide := make([]*Column, 5)
	for c := range wide {
		wide[c] = NewColumn(fmt.Sprintf("w%d", c), String)
		for r := 0; r < 3*ScanShardRows; r++ {
			wide[c].AppendString(fmt.Sprint(rng.Intn(12000)))
		}
	}
	wideTbl := NewTable("wide", wide...)
	q := &Query{GroupBy: wideTbl.ColumnNames(), Aggs: []Aggregate{{Kind: Count}}}
	b, err := bindQuery(wideTbl, q)
	if err != nil {
		t.Fatal(err)
	}
	if b.words != 2 || b.dense != 0 {
		t.Fatalf("five wide string columns: %d key words, dense %d; want 2 words, hashed", b.words, b.dense)
	}
	check("two-word string key", wideTbl, q, ExecOptions{Workers: 2})

	// layout binds the group-by and reports the key's shape: words, the size
	// of the direct-indexed table (0: hashed) and, per column, whether it
	// shares a mixed-radix word (true) or owns one.
	layout := func(src Source, groupBy ...string) (words, dense int, shared []bool) {
		t.Helper()
		b, err := bindQuery(src, &Query{GroupBy: groupBy, Aggs: []Aggregate{{Kind: Count}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range b.groups {
			shared = append(shared, g.mul != 0)
		}
		return b.words, b.dense, shared
	}
	// intTable holds, beside a five-value string and a measure, an integer
	// column drawn from [lo, lo+span], both ends included in every chunk.
	intTable := func(rows int, lo int64, span uint64) *Table {
		x, s, m := NewColumn("x", Int), NewColumn("s", String), NewColumn("m", Float)
		for r := 0; r < rows; r++ {
			off := uint64(rng.Int63()) % (span/2 + 1) * 2 // even offsets: half the range has no group
			switch r & (chunkRows - 1) {
			case 0:
				off = 0
			case 1:
				off = span
			}
			x.AppendInt(int64(uint64(lo) + off))
			s.AppendString(fmt.Sprint("s", rng.Intn(5)))
			m.AppendFloat(rng.NormFloat64())
		}
		return NewTable("ints", x, s, m)
	}
	sumBy := func(groupBy ...string) *Query {
		return &Query{GroupBy: groupBy, Aggs: []Aggregate{{Kind: Sum, Col: "m"}, {Kind: Count}}}
	}

	// Integer group columns at the packing edges, from a negative and from a
	// large minimum: a span a chunk can pack joins the word as v − min; one of
	// 2³² (the chunk keeps its values) or all of int64 keeps its own.
	for _, c := range []struct {
		span   uint64
		shared bool
	}{{1<<8 - 1, true}, {1<<16 - 1, true}, {1 << 16, true}, {1<<32 - 1, true}, {1 << 32, false}, {math.MaxUint64, false}} {
		for _, lo := range []int64{math.MinInt64, -int64(c.span/2) - 7, math.MaxInt64 - int64(min(c.span, math.MaxInt64))} {
			if lo == math.MinInt64 && c.span != math.MaxUint64 {
				lo = math.MinInt64 + 3
			}
			tbl := intTable(2*chunkRows+300, lo, c.span)
			label := fmt.Sprintf("int span %d from %d", c.span, lo)
			if words, _, shared := layout(tbl, "s", "x"); words != map[bool]int{true: 1, false: 2}[c.shared] || shared[1] != c.shared {
				t.Fatalf("%s: %d key words, x shares one: %v; want shared %v", label, words, shared[1], c.shared)
			}
			check(label, tbl, sumBy("s", "x"), ExecOptions{Workers: 2})
			check(label+", alone", tbl, sumBy("x"), ExecOptions{})
		}
	}

	// Two integers of 2³² codes each fill a word exactly: the second starts
	// another.
	two := intTable(chunkRows+50, -5, 1<<32-1)
	y := NewColumn("y", Int)
	for r := 0; r < two.NumRows(); r++ {
		y.AppendInt(two.Column("x").Int(r)/3 + int64(r&1)<<31)
	}
	two.AddColumn(y)
	if words, dense, shared := layout(two, "x", "y"); words != 2 || dense != 0 || !shared[0] || !shared[1] {
		t.Fatalf("two 2^32-code integers: %d words, dense %d, shared %v; want 2 radix words", words, dense, shared)
	}
	check("second radix word", two, sumBy("x", "y", "s"), ExecOptions{Workers: 2})

	// The product of the bounds at denseGroupLimit and one past it. A table of
	// under a chunk holds its integers in the open tail, whose bounds are the
	// values' own.
	for _, span := range []uint64{denseGroupLimit - 1, denseGroupLimit} {
		tbl := intTable(900, -40, span)
		want := 0
		if span < denseGroupLimit {
			want = denseGroupLimit
		}
		if _, dense, _ := layout(tbl, "x"); dense != want {
			t.Fatalf("%d integer codes: dense %d, want %d", span+1, dense, want)
		}
		check(fmt.Sprintf("%d integer codes", span+1), tbl, sumBy("x"), ExecOptions{})
	}

	// Two integer columns of 50 and 11 values, as l_quantity and l_discount
	// are: a chunk's width bounds them at 64 and 16 codes, and the pair is
	// direct-indexed where a byte a column (256 codes each) had it hashed.
	// Answers and group order are the row-at-a-time reference's all the same.
	qty, disc, m := NewColumn("qty", Int), NewColumn("disc", Int), NewColumn("m", Float)
	for r := 0; r < 2*chunkRows+300; r++ {
		qty.AppendInt(1 + int64(r*7%50))
		disc.AppendInt(int64(rng.Intn(11)))
		m.AppendFloat(rng.NormFloat64())
	}
	pair := NewTable("pair", qty, disc, m)
	if words, dense, _ := layout(pair, "qty", "disc"); words != 1 || dense != 64*16 {
		t.Fatalf("50 x 11 integer values: %d words, dense %d; want one word, direct-indexed at 64*16", words, dense)
	}
	check("two narrow integers", pair, sumBy("qty", "disc"), ExecOptions{Workers: 2})
	res, err = ExecuteCtx(context.Background(), pair, sumBy("qty", "disc"), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	for r := 0; r < pair.NumRows(); r++ { // one shard: groups in order of first appearance
		k := [2]int64{qty.Int(r), disc.Int(r)}
		if seen[k] {
			continue
		}
		var rem uint64
		g := len(seen)
		if got := [2]int64{res.tbl.cols[0].value(res.tbl.key(g), &rem).I, res.tbl.cols[1].value(res.tbl.key(g), &rem).I}; got != k {
			t.Fatalf("two narrow integers: group %d is %v, want %v, the %d'th pair to appear", g, got, k, g)
		}
		seen[k] = true
	}

	// And a predicate on either is a table of verdicts by value, like a
	// string's by code, where an integer of any range is compared row by row.
	if bp := bindPredicate(NewIn("qty", IntVal(3), IntVal(64)), qty.View()); len(bp.pass) != 64 || bp.base != 1 || bp.pass[2] != 1 || bp.pass[0] != 0 {
		t.Fatalf("IN on 50 integer values: %d verdicts from %d", len(bp.pass), bp.base)
	}
	if bp := bindPredicate(NewIn("x", IntVal(3)), two.Column("x").View()); bp.pass != nil || bp.ints == nil {
		t.Fatal("IN on an integer column of 2^32 values: want a typed compare")
	}
	narrow := sumBy("disc")
	narrow.Where = []Predicate{NewIn("qty", IntVal(3), IntVal(17), IntVal(50), IntVal(51), FloatVal(3)), NewCmp("disc", Gt, IntVal(4))}
	check("predicates on two narrow integers", pair, narrow, ExecOptions{Workers: 2})

	// A query bound to an older version, whose open tail a newer version then
	// widens: the bound range is the older version's, and so is every row the
	// scan reads.
	older := intTable(chunkRows+100, 10, 9)
	q = sumBy("x", "s")
	bound, err := bindQuery(older, q)
	if err != nil {
		t.Fatal(err)
	}
	newer := older.CloneForAppend()
	for r := 0; r < 50; r++ {
		newer.AppendRow(IntVal(int64(-1e12)*int64(r+1)), StringVal("wide"), FloatVal(1))
	}
	requireSameResult(t, "older version, bound before the append", referenceExecute(t, older, q, ExecOptions{}),
		executeRange(older, q, bound, ExecOptions{}, 1, 0, older.NumRows()))
	check("older version", older, q, ExecOptions{})
	check("newer version", newer, q, ExecOptions{Workers: 2})

	// Group counts on either side of a slab edge and of the first rehash, in
	// a hashed table (float keys), with NaNs and both zeros among the keys;
	// and row counts on either side of a block.
	for _, groups := range []int{slabGroups - 1, slabGroups, slabGroups + 1, 2*slabGroups - 1, 2 * slabGroups, 2*slabGroups + 1} {
		for _, rows := range []int{scanBlockRows - 1, scanBlockRows, scanBlockRows + 1, ScanShardRows + scanBlockRows + 1} {
			f, m := NewColumn("f", Float), NewColumn("m", Float)
			for r := 0; r < rows; r++ {
				if k := r % groups; k < len(kernelFloats) {
					f.AppendFloat(kernelFloats[k])
				} else {
					f.AppendFloat(float64(k) + 0.25)
				}
				m.AppendFloat(rng.NormFloat64())
			}
			res := check(fmt.Sprintf("%d float groups over %d rows", groups, rows), NewTable("f", f, m), sumBy("f"), ExecOptions{Workers: 2})
			if res.NumGroups() != groups {
				t.Fatalf("%d float groups over %d rows: %d groups", groups, rows, res.NumGroups())
			}
		}
	}
}

// TestResultIndexedOnDemand: a scan's Result is its table until a consumer
// asks for a Group. Whatever is done to it before that — counted, consumed,
// merged into, merged from, sent through the wire — and after, it reads as
// the reference's Results put through the same steps.
func TestResultIndexedOnDemand(t *testing.T) {
	ks := kernelSources(t, 3)[0]
	q := &Query{GroupBy: []string{"s_mid", "i_low", "f"}, Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Col: "m_f"}}}
	opts := []ExecOptions{
		{MarkExact: true, MaxRows: 5000},
		{Scale: 3},
		{Scale: 1.5, Workers: 2},
	}
	scan := func(i int) *Result {
		res, err := ExecuteCtx(context.Background(), ks.src, q, opts[i])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := func(order ...int) *Result {
		res := NewResult(q.GroupBy, q.Aggs)
		for _, i := range order {
			res.merge(referenceExecute(t, ks.src, q, opts[i]), false, nil)
		}
		return res
	}
	throughWire := func(r *Result) *Result {
		back, err := ResultFromWire(r.Wire())
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	indexed := func(r *Result) *Result { r.Keys(); return r }
	plain := func(r *Result) *Result { return r }

	// Readers may share a Result nobody has read yet: the first of them
	// builds the index, under the others' feet.
	shared, n := scan(2), want(2).NumGroups()
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if shared.NumGroups() != n || len(shared.Keys()) != n || len(shared.Groups()) != n {
				t.Errorf("a shared Result read %d groups, want %d", shared.NumGroups(), n)
			}
		}()
	}
	wg.Wait()

	for _, first := range []struct {
		name string
		prep func(*Result) *Result
	}{{"table", plain}, {"indexed", indexed}} {
		for _, rest := range []struct {
			name string
			prep func(*Result) *Result
		}{{"table", plain}, {"indexed", indexed}} {
			label := first.name + " <- " + rest.name

			// Consumed into an empty Result (the first is adopted), as
			// ExecutePlanCtx combines a plan's steps.
			combined := NewResult(q.GroupBy, q.Aggs)
			for i := range opts {
				prep := rest.prep
				if i == 0 {
					prep = first.prep
				}
				if err := combined.ConsumeKeeping(prep(scan(i)), nil); err != nil {
					t.Fatal(err)
				}
			}
			if n := want(0, 1, 2).NumGroups(); combined.NumGroups() != n {
				t.Fatalf("%s: %d groups before any is read, want %d", label, combined.NumGroups(), n)
			}
			requireSameResult(t, label+": consumed, over the wire", want(0, 1, 2), throughWire(combined))
			requireSameResult(t, label+": consumed", want(0, 1, 2), combined)

			// Merged into a scan's own Result; the source stays what it was.
			into, from := first.prep(scan(1)), rest.prep(scan(2))
			if err := into.Merge(from); err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, label+": merged into", want(1, 2), into)
			requireSameResult(t, label+": merged from, afterwards", want(2), from)
			requireSameResult(t, label+": over the wire twice", want(1, 2), throughWire(throughWire(into)))
		}
	}
}

// unknownPredicate is a Predicate implementation the kernel has no typed
// form for.
type unknownPredicate struct{ col string }

func (p unknownPredicate) Column() string { return p.col }
func (p unknownPredicate) String() string { return p.col + " IS ODD" }
func (p unknownPredicate) Matches(v Value) bool {
	switch v.T {
	case Int:
		return v.I%2 != 0
	case Float:
		return v.F != v.F || math.Mod(v.F, 2) != 0
	default:
		return len(v.S)%2 != 0
	}
}

func TestKernelUnknownPredicateImplementation(t *testing.T) {
	for _, ks := range kernelSources(t, 9)[:2] { // flat and star
		for _, col := range ks.columns {
			q := &Query{GroupBy: ks.columns[:1], Aggs: []Aggregate{{Kind: Count}}, Where: []Predicate{unknownPredicate{col}}}
			got, err := ExecuteCtx(context.Background(), ks.src, q, ExecOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, ks.name+" "+col, referenceExecute(t, ks.src, q, ExecOptions{}), got)
		}
	}
}

// scanBenchData is a TPC-H-shaped star schema — fact columns, a small and a
// large dimension, strings and ints of the benchmark's cardinalities, zipf
// skew — and a weighted sample of it, as a flat table and as a fact slice.
func scanBenchData(n int) (*Database, *Table, *Database) {
	rng := rand.New(rand.NewSource(17))
	zipf := func(card int) func() int {
		z := randx.NewZipf(2, card)
		return func() int { return z.Index(rng.Float64()) }
	}
	dim := func(name string, rows int, sCol string, sCard int, iCol string, iCard int) *Table {
		s, i := NewColumn(sCol, String), NewColumn(iCol, Int)
		ds, di := zipf(sCard), zipf(iCard)
		for r := 0; r < rows; r++ {
			s.AppendString(fmt.Sprintf("%s#%d", sCol, ds()))
			i.AppendInt(int64(di()))
		}
		return NewTable(name, s, i)
	}
	part := dim("part", 2000, "p_type", 150, "p_bucket", 30)
	orders := dim("orders", n/4, "o_clerk", 1000, "o_month", 12)

	mode, qty, price := NewColumn("l_mode", String), NewColumn("l_qty", Int), NewColumn("l_price", Float)
	fkP, fkO := NewColumn("part_fk", Int), NewColumn("ord_fk", Int)
	dm, dq := zipf(7), zipf(50)
	for r := 0; r < n; r++ {
		mode.AppendString(fmt.Sprintf("mode#%d", dm()))
		qty.AppendInt(int64(dq()))
		price.AppendFloat(math.Exp(7 + 0.8*rng.NormFloat64()))
		fkP.AppendInt(int64(rng.Intn(part.NumRows())))
		fkO.AppendInt(int64(rng.Intn(orders.NumRows())))
	}
	db := MustNewDatabase("bench", NewTable("lineitem", mode, qty, price, fkP, fkO),
		DimJoin{Table: part, FK: "part_fk"}, DimJoin{Table: orders, FK: "ord_fk"})

	rows := rng.Perm(n)[:n/4]
	weights := make([]float64, len(rows))
	for r := range rows {
		weights[r] = 1 + rng.Float64()*99
	}
	slice := db.FactSlice("sample", rows, weights)
	return db, slice.Flat("sample"), slice
}

var scanBenchGroupBys = [][]string{
	{"p_type"},
	{"p_type", "l_qty", "o_month"},
	{"p_type", "l_qty", "o_month", "o_clerk"},
}

func scanBenchQuery(groupBy []string) *Query {
	return &Query{
		GroupBy: groupBy,
		Aggs:    []Aggregate{{Kind: Count}, {Kind: Sum, Col: "l_price"}},
		Where:   []Predicate{NewIn("l_mode", StringVal("mode#0"), StringVal("mode#1"), StringVal("mode#3"))},
	}
}

// BenchmarkScanKernel measures the scan layer alone, one worker: the base
// database read through its foreign keys (the /v1/exact path), a flat
// weighted sample table scaled as one step of a rewrite plan, and the same
// sample rows as a fact slice joined to the base's dimensions (the form a
// sample family serves), for one, three and four group-by columns.
func BenchmarkScanKernel(b *testing.B) {
	db, sample, slice := scanBenchData(1 << 18)
	sources := []struct {
		name string
		src  Source
		opt  ExecOptions
	}{
		{"base", db, ExecOptions{MarkExact: true}},
		{"sample", sample, ExecOptions{Scale: 4}},
		{"slice", slice, ExecOptions{Scale: 4}},
	}
	for _, s := range sources {
		for _, groupBy := range scanBenchGroupBys {
			q := scanBenchQuery(groupBy)
			b.Run(fmt.Sprintf("%s/groupcols=%d", s.name, len(groupBy)), func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ExecuteCtx(context.Background(), s.src, q, s.opt); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				rows := float64(b.N) * float64(s.src.NumRows())
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
			})
		}
	}
}

// TestScanAllocatesPerGroupNotPerRow: what a scan allocates is bounded by its
// groups, never by the rows it reads. The table is the same 16k rows four
// times over, so the whole scan meets exactly the groups its first quarter
// does.
func TestScanAllocatesPerGroupNotPerRow(t *testing.T) {
	db, _, _ := scanBenchData(ScanShardRows)
	rows := make([]int, 4*ScanShardRows)
	for i := range rows {
		rows[i] = i % ScanShardRows
	}
	tbl := db.FactSlice("x4", rows, nil).Flat("x4")
	q := scanBenchQuery(scanBenchGroupBys[2])
	allocs := func(maxRows int) (perRun float64, groups int) {
		var res *Result
		perRun = testing.AllocsPerRun(5, func() {
			var err error
			if res, err = ExecuteCtx(context.Background(), tbl, q, ExecOptions{MaxRows: maxRows}); err != nil {
				t.Fatal(err)
			}
		})
		return perRun, res.NumGroups()
	}
	quarter, quarterGroups := allocs(ScanShardRows)
	full, groups := allocs(0)
	t.Logf("16k rows: %.0f allocations; 64k rows: %.0f allocations; %d groups", quarter, full, groups)
	if groups != quarterGroups || groups < 1000 {
		t.Fatalf("fixture: %d groups in the first quarter, %d overall", quarterGroups, groups)
	}
	// A few dozen per scan — bound query, worker state, the doublings of the
	// hash slots — and two per slab of groups in each of the two tables: far
	// fewer than one per group.
	if limit := 64 + float64(groups)/8; full > limit {
		t.Fatalf("64k-row scan made %.0f allocations for %d groups; want <= %.0f", full, groups, limit)
	}
	if full > quarter+4 {
		t.Fatalf("allocations grew with the rows scanned: %.0f at 16k rows, %.0f at 64k", quarter, full)
	}

	// In bytes: a group is its key word, its row count and eight sums in the
	// worker's table and again in the scan's, plus at most four 16-byte slots
	// in each hash and the doublings that led there — about 420 bytes. The
	// worker's fixed scratch is some 80 KB. Materialising the groups (the
	// index a consumer asks for) is not the scan's to pay.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ExecuteCtx(context.Background(), tbl, q, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perGroup := (float64(after.TotalAlloc-before.TotalAlloc) - 100e3) / float64(groups)
	t.Logf("%.0f bytes per group", perGroup)
	if perGroup > 450 {
		t.Fatalf("the scan allocated %.0f bytes per group, want <= 450", perGroup)
	}
}
