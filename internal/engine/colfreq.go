package engine

import (
	"fmt"
	"math"
	"sync"

	"dynsample/internal/parallel"
)

// The column-frequency and classification kernel. Pre-processing (scan 1 and
// the band test of scan 2), online maintenance (whose classes grow with each
// ingested version: RowClassifier.Grow) and DistinctValues all ask the
// same two questions of the joined view — how often does each value of a
// column occur, and which class does each row's value fall in — and all of
// them answer it here, over typed storage and through the star join instead
// of row by row through ColumnAccessor.Value:
//
//   - a fact column is tallied by a typed loop over its own blocks, densely
//     into an array wherever its values index one: a string by dictionary
//     code, an integer by its distance from the column's least value when
//     the chunks' bounds (intBounds) span no more than denseIntSpan values and
//     no more than the column has rows. Floats and wider integer spans go to
//     a float64- or int64-keyed map, with the τ early exit;
//   - a dimension column is never scanned at fact-table length. One pass over
//     the dimension's foreign-key column counts how many fact rows reference
//     each dimension row, and every column of that dimension is then a fold
//     over its few thousand rows weighted by those counts. A dimension row no
//     fact row references has weight zero, so its values never appear.
//
// Counts are integers, so the row-sharded partial tallies merge exactly: the
// result is the same for every worker count.

// ColumnView is a typed, read-only window onto one column of a table or of a
// database's joined view: the chunks for its type and, for a dimension
// column, the fact table's foreign-key chunks. The value of view row r is row
// r of the typed storage for a fact column and row fk.at(r) of it otherwise,
// so hot loops read a block of rows as a slice (block) or a row by chunk and
// offset (chunked.at) instead of boxing every cell into a Value.
//
// The chunks are the column's own storage, and rows is the length of the
// version the view was taken from. They must not be modified, and they stay
// valid while later versions of the table grow (CloneForAppend, an Appender):
// appends land beyond rows. Appending to the very version a view was taken
// from ends the view: a table built by one version fills one tail again and
// again.
type ColumnView struct {
	Name string
	Type Type

	ints   chunked[int64]   // Type == Int
	floats chunked[float64] // Type == Float
	codes  chunked[int32]   // Type == String: one dictionary code per row
	Dict   []string         // Type == String: code -> string
	rows   int              // rows of the table that stores the column

	fk  chunked[int64] // fact row -> row of the owning dimension; unset for fact columns
	Dim int            // index into Database.Dims; -1 for fact columns
}

// sealLast gives the view of a dimension column every row in the sealed
// list. Rows read through a join come in no order, and a dimension of a chunk
// or two has half of them in its open tail: read row by row in two forms,
// they cost a mispredicted branch each. A view whose rows are gathered
// (window) is therefore bound with a sealed copy of the tail.
func (v *ColumnView) sealLast() {
	switch {
	case v.Dim < 0:
	case v.Type == Int:
		v.ints.sealLast(v.rows)
	case v.Type == Float:
		v.floats.sealLast(v.rows)
	default:
		v.codes.sealLast(v.rows)
	}
}

// View returns the typed view of a flat table's column.
func (c *Column) View() ColumnView {
	return ColumnView{Name: c.Name, Type: c.Type, ints: c.ints, floats: c.floats, codes: c.codes, Dict: c.dict, rows: c.n, Dim: -1}
}

// View returns the typed view of a column of the joined view.
func (db *Database) View(name string) (ColumnView, error) {
	b, ok := db.bindings[name]
	if !ok {
		return ColumnView{}, fmt.Errorf("engine: unknown column %q", name)
	}
	v := b.col.View()
	if b.fk != nil {
		v.fk, v.Dim = b.fk.ints, b.dim
	}
	return v, nil
}

// tally holds value counts in the representation of the column's type:
// dense (by dictionary code, by dimension row id for a foreign-key pass, or
// by an integer's distance from base) or a typed map for numerics. over
// marks a map that crossed the distinct limit and was dropped.
type tally struct {
	dense  []int64
	base   int64 // an integer column's value at dense[0]
	ints   map[int64]int64
	floats map[float64]int64
	over   bool
}

// denseIntSpan is the most values an integer column may span and still be
// counted into an array: 64 Ki counts, half a megabyte a row shard.
const denseIntSpan = 1 << 16

// ColumnFreq is the exact value-frequency table of one view column over the
// fact rows of one database version.
type ColumnFreq struct {
	View ColumnView
	// Over reports that the column has more distinct values than the limit
	// the frequencies were requested with (the paper's τ cutoff, §4.2.1);
	// its counts are then dropped.
	Over bool

	t tally
}

// ColumnFrequencies counts every distinct value of each named view column.
// A positive limit is the distinct-value cutoff: a column exceeding it comes
// back with Over set and no counts, and a tally into a map stops at the first
// row that crosses the limit. Row ranges are tallied on up to workers
// goroutines; the counts do not depend on workers.
//
// Float values are told apart as Value == does: NaN equals nothing, itself
// included, and +0 equals −0 (which of the two zeros represents the pair is
// unspecified).
func (db *Database) ColumnFrequencies(names []string, limit, workers int) ([]*ColumnFreq, error) {
	if limit <= 0 {
		limit = math.MaxInt
	}
	out := make([]*ColumnFreq, len(names))
	// One pass per requested fact column and one per referenced dimension's
	// foreign-key column; passOf[i] is the pass column i is derived from.
	var passes []pass
	passOf := make([]int, len(names))
	fkPass := make(map[int]int)
	for i, name := range names {
		v, err := db.View(name)
		if err != nil {
			return nil, err
		}
		out[i] = &ColumnFreq{View: v}
		if v.Dim < 0 {
			passOf[i] = len(passes)
			p := pass{v: v, size: len(v.Dict)}
			if v.Type == Int {
				p.base, p.size = denseInts(&v.ints, v.rows)
			}
			passes = append(passes, p)
			continue
		}
		if _, ok := fkPass[v.Dim]; !ok {
			fkPass[v.Dim] = len(passes)
			passes = append(passes, pass{v: ColumnView{Type: Int, ints: v.fk, Dim: -1}, size: db.Dims[v.Dim].Table.NumRows()})
		}
		passOf[i] = fkPass[v.Dim]
	}

	n := db.NumRows()
	nShards := parallel.Normalize(workers, (n+ScanShardRows-1)/ScanShardRows)
	shards := parallel.Shards(n, (n+nShards-1)/nShards)
	if len(shards) == 0 {
		shards = []parallel.Shard{{}} // empty database: every tally is empty
	}
	partial := make([]tally, len(passes)*len(shards))
	parallel.ForEach(workers, len(partial), func(k int) {
		s := shards[k%len(shards)]
		partial[k] = passes[k/len(shards)].tally(s.Lo, s.Hi, limit)
	})
	merged := make([]tally, len(passes))
	parallel.ForEach(workers, len(passes), func(p int) {
		merged[p] = mergeTallies(partial[p*len(shards):(p+1)*len(shards)], limit)
	})

	parallel.ForEach(workers, len(out), func(i int) {
		f := out[i]
		f.t = merged[passOf[i]]
		if f.View.Dim >= 0 {
			f.t = foldDimension(f.View, f.t.dense, limit)
		}
		f.Over = f.t.over
		if f.t.dense != nil {
			distinct := 0
			for _, c := range f.t.dense {
				if c > 0 {
					distinct++
				}
			}
			f.Over = distinct > limit
		}
		if f.Over {
			f.t = tally{}
		}
	})
	return out, nil
}

// pass is one scan of a physical fact-table column: a requested fact column
// or a dimension's foreign-key column. A string column, a foreign key (by
// dimension row id) and an integer column of size values from base on are
// counted densely; any other into a map.
type pass struct {
	v    ColumnView
	base int64
	size int
}

// denseInts returns the array an integer column's first rows values are
// counted in: from the least value intBounds finds, size long when the
// bounds span no more than denseIntSpan values and no more than rows; size is
// 0 otherwise. (The span of all of int64 is 2⁶⁴−1 in uint64, and never fits.)
func denseInts(s *chunked[int64], rows int) (base int64, size int) {
	lo, hi := intBounds(s, rows)
	if span := uint64(hi) - uint64(lo); span < uint64(min(denseIntSpan, rows)) {
		return lo, int(span) + 1
	}
	return 0, 0
}

// tally counts rows [lo,hi) of the pass's column.
func (p pass) tally(lo, hi, limit int) tally {
	t := tally{base: p.base}
	switch {
	case p.v.Type == String:
		t.dense = tallyDense(&p.v.codes, lo, hi, p.size, 0)
	case p.size > 0:
		t.dense = tallyDense(&p.v.ints, lo, hi, p.size, p.base)
	case p.v.Type == Int:
		t.ints, t.over = tallyMap(&p.v.ints, lo, hi, limit)
	default:
		t.floats, t.over = tallyMap(&p.v.floats, lo, hi, limit)
	}
	return t
}

// tallyDense counts rows [lo,hi) of s, whose values less base index an array
// of the given size, a block at a time.
func tallyDense[T int32 | int64](s *chunked[T], lo, hi, size int, base T) []int64 {
	dense := make([]int64, size)
	var buf [scanBlockRows]T
	for n := 0; lo < hi; lo += n {
		n = blockLen(lo, hi)
		for _, x := range block(s, nil, lo, n, buf[:], nil) {
			dense[x-base]++
		}
	}
	return dense
}

// tallyMap counts rows [lo,hi) of s by value and stops, reporting over, at
// the first row that takes it past limit distinct values.
func tallyMap[T int64 | float64](s *chunked[T], lo, hi, limit int) (counts map[T]int64, over bool) {
	counts = make(map[T]int64)
	var buf [scanBlockRows]T
	for n := 0; lo < hi; lo += n {
		n = blockLen(lo, hi)
		for _, x := range block(s, nil, lo, n, buf[:], nil) {
			counts[x]++
			if len(counts) > limit {
				return nil, true
			}
		}
	}
	return counts, false
}

// mergeTallies adds the row-shard tallies of one column into the first.
func mergeTallies(parts []tally, limit int) tally {
	t := parts[0]
	for _, p := range parts[1:] {
		if t.over || p.over {
			return tally{over: true}
		}
		for i, c := range p.dense {
			t.dense[i] += c
		}
		for x, c := range p.ints {
			t.ints[x] += c
		}
		for x, c := range p.floats {
			t.floats[x] += c
		}
		if len(t.ints) > limit || len(t.floats) > limit {
			return tally{over: true}
		}
	}
	return t
}

// foldDimension counts a dimension column through the join: refs[d] is the
// number of fact rows referencing dimension row d.
func foldDimension(v ColumnView, refs []int64, limit int) tally {
	var t tally
	switch v.Type {
	case String:
		t.dense = make([]int64, len(v.Dict))
		for d, c := range refs {
			t.dense[v.codes.at(d)] += c
		}
	case Int:
		t.ints = make(map[int64]int64)
		for d, c := range refs {
			if c == 0 {
				continue
			}
			t.ints[v.ints.at(d)] += c
			if len(t.ints) > limit {
				return tally{over: true}
			}
		}
	default:
		t.floats = make(map[float64]int64)
		for d, c := range refs {
			x := v.floats.at(d)
			if x != x {
				// NaN equals nothing: each referencing fact row holds a
				// value of its own, as a per-row count would find.
				for ; c > 0 && len(t.floats) <= limit; c-- {
					t.floats[x] = 1
				}
			} else if c > 0 {
				t.floats[x] += c
			}
			if len(t.floats) > limit {
				return tally{over: true}
			}
		}
	}
	return t
}

// Counts returns the column's distinct values with their occurrence counts,
// in no particular order; nil when Over.
func (f *ColumnFreq) Counts() []ValueCount {
	var out []ValueCount
	for i, c := range f.t.dense {
		if c > 0 {
			out = append(out, ValueCount{Value: f.denseValue(i), Count: c})
		}
	}
	for x, c := range f.t.ints {
		out = append(out, ValueCount{Value: IntVal(x), Count: c})
	}
	for x, c := range f.t.floats {
		out = append(out, ValueCount{Value: FloatVal(x), Count: c})
	}
	return out
}

// denseValue is the value a dense tally counts at i.
func (f *ColumnFreq) denseValue(i int) Value {
	if f.View.Type == String {
		return StringVal(f.View.Dict[i])
	}
	return IntVal(f.t.base + int64(i))
}

// ColumnClasses maps every row of a counted column to a small class number
// chosen per distinct value — for small group sampling, the hierarchy band
// of the row's value. A negative class means "none".
type ColumnClasses struct {
	view ColumnView

	// Class per value, in the representation the values were counted in:
	// an array for a dense tally, by code or by an integer's distance from
	// base, and maps holding only the classes other than unseen otherwise.
	byCode  []int8
	base    int64
	byInt   map[int64]int8
	byFloat map[float64]int8
	// unseen is the class of a value the count never saw: one no counted
	// row held, or one appended since.
	unseen int8
}

// Classify evaluates class once per distinct counted value and returns the
// per-row lookup, in which a value the count never saw is in class unseen.
// The column must not be Over.
func (f *ColumnFreq) Classify(class func(Value) int8, unseen int8) *ColumnClasses {
	c := &ColumnClasses{view: f.View, base: f.t.base, unseen: unseen}
	switch {
	case f.t.dense != nil:
		c.byCode = make([]int8, len(f.t.dense))
		for i, n := range f.t.dense {
			c.byCode[i] = unseen
			if n > 0 {
				c.byCode[i] = class(f.denseValue(i))
			}
		}
	case f.View.Type == Int:
		c.byInt = make(map[int64]int8)
		for x := range f.t.ints {
			if k := class(IntVal(x)); k != unseen {
				c.byInt[x] = k
			}
		}
	default:
		c.byFloat = make(map[float64]int8)
		for x := range f.t.floats {
			if k := class(FloatVal(x)); k != unseen {
				c.byFloat[x] = k
			}
		}
	}
	return c
}

// Classes returns the per-row lookup of the column that puts every value of
// known in class in and every other value in class unseen: what Classify
// returns over a count that saw exactly the values of known. The column must
// hold every string of known; one its dictionary gains later is unseen.
func (v ColumnView) Classes(known map[Value]struct{}, in, unseen int8) *ColumnClasses {
	c := &ColumnClasses{view: v, unseen: unseen}
	switch v.Type {
	case String:
		c.byCode = make([]int8, len(v.Dict))
		for i, s := range v.Dict {
			c.byCode[i] = unseen
			if _, ok := known[StringVal(s)]; ok {
				c.byCode[i] = in
			}
		}
	case Int:
		c.byInt = make(map[int64]int8, len(known))
		for x := range known {
			c.byInt[x.I] = in
		}
	default:
		c.byFloat = make(map[float64]int8, len(known))
		for x := range known {
			c.byFloat[x.F] = in
		}
	}
	return c
}

// own returns the class of the value at row p of the table that stores the
// column (the fact table, or the column's dimension).
func (c *ColumnClasses) own(p int) int8 {
	switch c.view.Type {
	case String:
		return c.ofInt(int64(c.view.codes.at(p)))
	case Int:
		return c.ofInt(c.view.ints.at(p))
	default:
		return c.ofFloat(c.view.floats.at(p))
	}
}

// ofInt is the class of integer x, or of dictionary code x: unseen for a
// value that was not counted, outside the array's span included.
func (c *ColumnClasses) ofInt(x int64) int8 {
	if c.byInt != nil {
		if k, ok := c.byInt[x]; ok {
			return k
		}
		return c.unseen
	}
	if i := uint64(x) - uint64(c.base); i < uint64(len(c.byCode)) {
		return c.byCode[i]
	}
	return c.unseen
}

func (c *ColumnClasses) ofFloat(x float64) int8 {
	if k, ok := c.byFloat[x]; ok {
		return k
	}
	return c.unseen
}

// classes sets out[j] to the class of fact row lo+j, for rows that sit in
// one scan block, read a block at a time: a dimension column's row by row
// through the join.
func (c *ColumnClasses) classes(lo int, out []int8, buf *blockBuf) {
	switch v, n := &c.view, len(out); {
	case v.Dim >= 0:
		for j := range out {
			out[j] = c.Class(lo + j)
		}
	case v.Type == String:
		for j, x := range block(&v.codes, nil, lo, n, buf.codes, nil) {
			out[j] = c.ofInt(int64(x))
		}
	case v.Type == Int:
		for j, x := range block(&v.ints, nil, lo, n, buf.ints, nil) {
			out[j] = c.ofInt(x)
		}
	default:
		for j, x := range block(&v.floats, nil, lo, n, buf.floats, nil) {
			out[j] = c.ofFloat(x)
		}
	}
}

// Class returns the class of view row r's value.
func (c *ColumnClasses) Class(row int) int8 {
	if c.view.Dim >= 0 {
		row = int(c.view.fk.at(row))
	}
	return c.own(row)
}

// RowClassifier answers, for one fact row, which of a set of classified
// columns hold a classified (non-negative) value: bit i of the result stands
// for column i. Folded, it costs one lookup per dimension, not per column:
// each dimension row's bits are precomputed, the per-value classes folded
// through the join once, so a fact row costs one foreign-key load and one
// array load — the form for a classifier asked about every row. Unfolded, a
// dimension column is classified row by row through the join, as a fact
// column is, and costs nothing per dimension row — the form for one asked
// about a few rows of each version it grows to (Grow).
type RowClassifier struct {
	cols  []*ColumnClasses
	words int
	fact  []int // positions in cols of the columns classified row by row
	dims  []dimBits
}

// dimBits holds, for one dimension, the bits its columns contribute per
// dimension row: words uint64s per row.
type dimBits struct {
	fk   chunked[int64]
	bits []uint64
}

// NewRowClassifier combines per-column classes into one row classifier,
// folded or not.
func NewRowClassifier(cols []*ColumnClasses, fold bool) *RowClassifier {
	rc := &RowClassifier{cols: cols, words: (len(cols) + 63) / 64}
	slot := make(map[int]int) // Database.Dims index -> position in rc.dims
	for i, c := range cols {
		if c.view.Dim < 0 || !fold {
			rc.fact = append(rc.fact, i)
			continue
		}
		k, ok := slot[c.view.Dim]
		if !ok {
			k = len(rc.dims)
			slot[c.view.Dim] = k
			rc.dims = append(rc.dims, dimBits{fk: c.view.fk, bits: make([]uint64, c.view.rows*rc.words)})
		}
		bits := rc.dims[k].bits
		for d := range c.view.rows {
			if c.own(d) >= 0 {
				bits[d*rc.words+i/64] |= 1 << (uint(i) % 64)
			}
		}
	}
	return rc
}

// Grow rebinds an unfolded classifier to db, a later version of the database
// its classes were taken from (a folded one's bits cover only the dimension
// rows it was built with). A value new to a column is in its unseen class.
func (rc *RowClassifier) Grow(db *Database) error {
	for _, c := range rc.cols {
		v, err := db.View(c.view.Name)
		if err != nil {
			return err
		}
		c.view = v
	}
	return nil
}

// Words is the length of a row's bit vector: ceil(columns/64).
func (rc *RowClassifier) Words() int { return rc.words }

// classifyBuf is BlockBits' scratch: a scan block's values, foreign keys and
// classes.
type classifyBuf struct {
	blockBuf
	classes [scanBlockRows]int8
}

var classifyBufs = sync.Pool{New: func() any { return &classifyBuf{blockBuf: newBlockBuf()} }}

// BlockBits overwrites dst[:n·Words()] with the bit vectors of rows [lo,
// lo+n), row lo+j's at dst[j·Words():]. A scan block at a time, it reads each
// dimension's foreign keys and each fact column once for all the block's
// rows, then sets the rows' bits. A lone row (materialise asks for its sampled
// rows' masks one at a time) is read by at, into no block scratch. It only
// reads, so any goroutine may call it.
func (rc *RowClassifier) BlockBits(lo, n int, dst []uint64) {
	w := rc.words
	dst = dst[:n*w]
	clear(dst)
	var buf *classifyBuf
	if n > 1 {
		buf = classifyBufs.Get().(*classifyBuf)
		defer classifyBufs.Put(buf)
	}
	var loneFK [1]int64
	var loneClass [1]int8
	for m := 0; n > 0; lo, n, dst = lo+m, n-m, dst[m*w:] {
		m = blockLen(lo, lo+n)
		for i := range rc.dims {
			d, fks := &rc.dims[i], loneFK[:]
			if m == 1 {
				loneFK[0] = d.fk.at(lo)
			} else {
				fks = block(&d.fk, nil, lo, m, buf.ints, nil)
			}
			for j, r := range fks {
				for k, b := range d.bits[int(r)*w:][:w] {
					dst[j*w+k] |= b
				}
			}
		}
		for _, i := range rc.fact {
			classes := loneClass[:]
			if m == 1 {
				loneClass[0] = rc.cols[i].Class(lo)
			} else {
				classes = buf.classes[:m]
				rc.cols[i].classes(lo, classes, &buf.blockBuf)
			}
			word, bit := i/64, uint64(1)<<(i%64)
			for j, k := range classes {
				dst[j*w+word] |= bit &^ uint64(k>>7) // none for a negative class
			}
		}
	}
}

// gather copies the values at the given positions of the column's own
// storage (fact rows for a fact column, dimension rows for a dimension
// column) into a new column, sealed chunk by chunk. A string column's
// dictionary is rebuilt in order of first appearance, translating codes
// instead of re-hashing strings.
func (v ColumnView) gather(at []int) *Column {
	nc := newColumn(v.Name, v.Type, len(at))
	switch v.Type {
	case Int:
		nc.ints = gatherRows(&v.ints, at, nil)
	case Float:
		nc.floats = gatherRows(&v.floats, at, nil)
	default:
		codeMap := make([]int32, len(v.Dict))
		for k := range codeMap {
			codeMap[k] = -1
		}
		nc.codes = gatherRows(&v.codes, at, func(codes []int32) {
			for i, code := range codes {
				if codeMap[code] < 0 {
					codeMap[code] = nc.addDict(v.Dict[code])
				}
				codes[i] = codeMap[code]
			}
		})
	}
	return nc
}

// gatherRows returns src's rows at as storage built in one go. translate,
// when not nil, rewrites each chunk's values before they are sealed.
func gatherRows[T stored](src *chunked[T], at []int, translate func([]T)) chunked[T] {
	return fillRows(len(at), func(vals []T, lo int) {
		for i := range vals {
			vals[i] = src.at(at[lo+i])
		}
		if translate != nil {
			translate(vals)
		}
	})
}

// fillRows returns storage of n rows built in one go: every chunk sealed, the
// last one short. fill sets vals to the rows from lo on.
func fillRows[T stored](n int, fill func(vals []T, lo int)) (dst chunked[T]) {
	var vals []T
	for lo := 0; lo < n; lo += chunkRows {
		if k := min(n-lo, chunkRows); len(vals) != k {
			vals = make([]T, k)
		}
		fill(vals, lo)
		vals = dst.add(vals)
	}
	return dst
}
