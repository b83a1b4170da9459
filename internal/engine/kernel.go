package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"dynsample/internal/bitmask"
)

// The scan kernel. A query is bound to a source once per scan (bindQuery):
// every column becomes a ColumnView, every predicate a verdict per dictionary
// code or a typed numeric test, and the group-by columns a packing of one
// integer key per row. Each row-range shard is then taken through the same
// stages a block of scanBlockRows rows at a time (shardScan.scan):
//
//	select      the exclude filter, one (word & m) == 0 test per mask word
//	            column the ExcludeMask has a bit in, then each predicate
//	            narrow a selection vector
//	group id    the group columns' codes are packed into the row's key and
//	            the key is looked up in the shard's groupTable
//	accumulate  the five accumulators are updated in row order
//
// Shard tables are folded into the scan's table in shard order, and that one
// table is the Result's storage as it stands (boundQuery.result): Groups —
// boxed key Values, the encoded key string — are built from it when a
// consumer asks for them (Result.index). Nothing the kernel allocates grows
// with the number of source rows: a block is read from the one storage chunk
// it sits in (column.go), in place or decoded into a block-sized buffer.

const (
	// scanBlockRows is how many rows go through the kernel's stages at a
	// time: small enough that a block's scratch stays in the L1/L2 cache.
	scanBlockRows = 1024
	// denseGroupLimit bounds the direct-indexed regime. When every group
	// column has a bounded code (groupCol) and the product of the bounds is at
	// most this, a row's key indexes an array; otherwise it is hashed. The
	// array is 16 KB: it stays in the L1 cache beside the block's scratch,
	// and a scan whose workers run far apart — every finished shard holds its
	// table until the shards before it are folded — parks little. (At 65 536
	// entries, exact scans at two workers read +4 % on rss_peak_mb.)
	denseGroupLimit = 1 << 12
)

// boundQuery is a query resolved against one source. It is read-only after
// bindQuery and shared by every scan worker.
type boundQuery struct {
	q       *Query
	exclude []excludeWord // "WHERE bitmask & m = 0", a word column at a time
	weight  *ColumnView   // nil for an unweighted source
	preds   []boundPred
	groups  []groupCol
	aggs    []ColumnView // the measure of each SUM; unused for COUNT
	words   int          // 64-bit words in a row's key
	dense   int          // size of the direct-indexed table; 0 when keys are hashed
}

// excludeWord is the exclude filter on one mask word column: a row passes
// when it has none of bits set.
type excludeWord struct {
	view ColumnView
	bits int64
}

// keep narrows sel, in place, to the rows of the block at lo that pass.
func (e *excludeWord) keep(sel []int32, lo int, buf *blockBuf) []int32 {
	words, at := window(&e.view.ints, &e.view, sel, lo, buf.ints, buf)
	k := 0
	for j, a := range at {
		sel[k] = sel[j] // branch-free: kept only if k moves on
		hit := uint64(words[a] & e.bits)
		k += int((hit|-hit)>>63 ^ 1)
	}
	return sel[:k]
}

// groupCol is one group-by column's share of the key. A column whose values
// have a bounded code — a string's dictionary code, an integer's distance
// from the least value its chunks can hold — contributes code·mul to a word
// it shares, in mixed radix, with the bounded columns before it while the
// product of their bounds (card) fits. Floats, integers spanning 2³² or more
// within a chunk, and a product past 2⁶⁴ take a word of their own (mul 0),
// holding the bit pattern AppendKey encodes.
type groupCol struct {
	view ColumnView
	word int
	mul  uint64
	card uint64
	base int64 // Int: the value of code 0
}

// bindQuery resolves q, and the exclude filter of a scan that has one, against
// src. A word of exclude the source has no column for filters nothing: rows
// without a mask belong to no small group table.
func bindQuery(src Source, q *Query, exclude bitmask.Mask) (*boundQuery, error) {
	b := &boundQuery{
		q:      q,
		preds:  make([]boundPred, len(q.Where)),
		groups: make([]groupCol, len(q.GroupBy)),
		aggs:   make([]ColumnView, len(q.Aggs)),
	}
	for w, bits := range exclude.Words() {
		if bits == 0 {
			continue
		}
		if v, err := src.View(MaskColumn(w)); err == nil {
			b.exclude = append(b.exclude, excludeWord{view: v, bits: int64(bits)})
		}
	}
	if v, err := src.View(WeightColumn); err == nil {
		b.weight = &v
	}
	view := func(name, role string) (ColumnView, error) {
		v, err := src.View(name)
		if err != nil {
			return v, fmt.Errorf("%s column: %w", role, err)
		}
		v.sealLast()
		return v, nil
	}
	var err error
	for i, g := range q.GroupBy {
		if b.groups[i].view, err = view(g, "group-by"); err != nil {
			return nil, err
		}
	}
	for i, a := range q.Aggs {
		if a.Kind != Sum {
			continue
		}
		if b.aggs[i], err = view(a.Col, "aggregate"); err != nil {
			return nil, err
		}
	}
	for i, p := range q.Where {
		v, err := view(p.Column(), "predicate")
		if err != nil {
			return nil, err
		}
		b.preds[i] = bindPredicate(p, v)
	}
	b.packKeys()
	return b, nil
}

// packKeys lays the group columns out in the key and picks the regime.
func (b *boundQuery) packKeys() {
	radix, place, coded := -1, uint64(1), true
	for i := range b.groups {
		g := &b.groups[i]
		switch g.view.Type {
		case String:
			g.card = uint64(max(len(g.view.Dict), 1))
		case Int:
			var hi int64
			g.base, hi = intBounds(&g.view.ints, g.view.rows)
			g.card = uint64(hi) - uint64(g.base) + 1 // 0: unbounded, or all of int64
		}
		if g.card == 0 {
			coded, g.base = false, 0
			g.word = b.words
			b.words++
			continue
		}
		if over, _ := bits.Mul64(place, g.card); radix < 0 || over != 0 {
			radix, place = b.words, 1
			b.words++
		}
		g.word, g.mul = radix, place
		place *= g.card
	}
	if b.words == 0 {
		b.words = 1 // no group-by columns: every row has key 0
	}
	if coded && b.words == 1 && place <= denseGroupLimit {
		b.dense = int(place)
	}
}

// value boxes the column's value in a group's key. rem carries what is left
// of a shared word from one of its columns to the next, the first of which
// has mul 1: a column's code costs one division, not two.
func (g *groupCol) value(key []uint64, rem *uint64) Value {
	k := key[g.word]
	if g.mul != 0 {
		if g.mul == 1 {
			*rem = k
		}
		k, *rem = *rem%g.card, *rem/g.card
	}
	switch g.view.Type {
	case String:
		return StringVal(g.view.Dict[k])
	case Int:
		return IntVal(g.base + int64(k))
	default:
		return FloatVal(math.Float64frombits(k))
	}
}

// blockBuf is the scratch a block's values are decoded or gathered into, one
// slice of scanBlockRows per storage type, and the block's foreign keys, a
// dimension at a time.
type blockBuf struct {
	ints   []int64
	floats []float64
	codes  []int32
	fks    []fkRows // by ColumnView.Dim
}

// fkRows is one dimension's foreign keys of the n selected rows of the block
// at lo, as window read them: every column of the dimension is gathered
// through the one reading. A selection over a block only ever narrows, so lo
// and n tell it from every other the buffer has met since forget.
type fkRows struct {
	lo, n int
	rows  []int64
	at    []int32
	ids   []int64 // what rows is decoded into
}

func newBlockBuf() blockBuf {
	const n = scanBlockRows
	return blockBuf{ints: make([]int64, n), floats: make([]float64, n), codes: make([]int32, n)}
}

// forget drops the foreign keys read so far, before another scan's blocks.
func (buf *blockBuf) forget() {
	for i := range buf.fks {
		buf.fks[i].lo = -1
	}
}

// join returns the dimension rows the selected rows of the block at lo refer
// to through v's foreign key: row rows[at[j]] for the j'th of them.
func (buf *blockBuf) join(v *ColumnView, sel []int32, lo int) ([]int64, []int32) {
	for len(buf.fks) <= v.Dim {
		buf.fks = append(buf.fks, fkRows{lo: -1, ids: make([]int64, scanBlockRows)})
	}
	f := &buf.fks[v.Dim]
	if f.lo != lo || f.n != len(sel) {
		f.lo, f.n = lo, len(sel)
		f.rows, f.at = window(&v.fk, nil, sel, lo, f.ids, nil)
	}
	return f.rows, f.at
}

// identity[j] == j: the selection over values gathered in selection order.
var identity = func() (id [scanBlockRows]int32) {
	for j := range id {
		id[j] = int32(j)
	}
	return id
}()

// window returns the selected rows' values of one column, s of the view v:
// vals[at[j]] is the value of the block's j-th selected row. sel holds row
// offsets into the block starting at source row lo. There are three ways to
// read a block. A fact column's chunk that holds the values themselves
// (floats, integers that need their whole width, the open tail) is read in
// place: at is sel itself. A packed chunk is decoded, the selected rows only,
// into vals (in order, without looking at sel, while every row is still
// selected). A dimension column (see ColumnView.sealLast) is gathered into
// vals through the block's foreign keys, themselves read in one of the first
// two ways, once for all the columns of the dimension (blockBuf.join). A nil
// v is a fact column.
func window[T stored](s *chunked[T], v *ColumnView, sel []int32, lo int, vals []T, buf *blockBuf) ([]T, []int32) {
	if v != nil && v.Dim >= 0 {
		rows, at := buf.join(v, sel, lo)
		for j, a := range at {
			r := int(rows[a])
			vals[j] = s.sealed[r>>chunkShift].at(r & (chunkRows - 1))
		}
		return vals, identity[:len(sel)]
	}
	c, o := s.chunk(lo>>chunkShift), lo&(chunkRows-1)
	if c.width == 0 {
		return c.wide[o:], sel
	}
	if n := len(sel); n > 0 && 3*n > int(sel[n-1]) { // a row in three: in order is cheaper than picked
		c.decode(vals[:sel[n-1]+1], nil, o)
		return vals, sel
	}
	c.decode(vals, sel, o)
	return vals, identity[:len(sel)]
}

// block returns the values of view rows [lo, lo+n) of one column, which must
// not cross a scan block edge.
func block[T stored](s *chunked[T], v *ColumnView, lo, n int, vals []T, buf *blockBuf) []T {
	vals, _ = window(s, v, identity[:n], lo, vals, buf)
	return vals[:n]
}

// blockLen is how many of rows [lo, hi) sit in lo's scan block. Shards start
// on a block edge, so a scan's blocks are whole ones and a last partial one.
func blockLen(lo, hi int) int { return min(hi-lo, scanBlockRows-lo%scanBlockRows) }

// addKeys writes the column's share of each selected row's key.
func (g *groupCol) addKeys(keys []uint64, words int, sel []int32, lo int, buf *blockBuf) {
	v := &g.view
	keys = keys[g.word:]
	switch v.Type {
	case String:
		codes, at := window(&v.codes, v, sel, lo, buf.codes, buf)
		for j, a := range at {
			keys[j*words] += uint64(codes[a]) * g.mul
		}
	case Int:
		ints, at := window(&v.ints, v, sel, lo, buf.ints, buf)
		mul := max(g.mul, 1) // mul 0: the value itself, base being 0
		for j, a := range at {
			keys[j*words] += uint64(ints[a]-g.base) * mul
		}
	default:
		floats, at := window(&v.floats, v, sel, lo, buf.floats, buf)
		for j, a := range at {
			keys[j*words] = math.Float64bits(floats[a])
		}
	}
}

// measure fills xs with the selected rows' values of a SUM column, as
// ColumnAccessor.Float reads them: a string column sums as zero.
func measure(v *ColumnView, xs []float64, sel []int32, lo int, buf *blockBuf) {
	switch v.Type {
	case Int:
		ints, at := window(&v.ints, v, sel, lo, buf.ints, buf)
		for j, a := range at {
			xs[j] = float64(ints[a])
		}
	case Float:
		floats, at := window(&v.floats, v, sel, lo, buf.floats, buf)
		for j, a := range at {
			xs[j] = floats[a]
		}
	default:
		clear(xs)
	}
}

// groupTable holds the groups of one shard, of a whole scan or — handed over
// as it stands — of the scan's Result, under their integer keys, in order of
// first appearance. Storage grows a slab of slabGroups groups at a time and
// nothing in it moves: group g's key, and after it the group's RawRows, is the
// g%slabGroups'th run of words+1 words in keys[g/slabGroups], its
// accumulators the like run of stride floats in acc — Group's four slices one
// after the other (Vals, RawSum, RawSumSq, VarAcc, one float per aggregate
// each).
type groupTable struct {
	cols          []groupCol // decode a key (Result.absorb)
	words, stride int
	n             int // groups
	keys          [][]uint64
	acc           [][]float64

	// A key finds its group's number plus one, zero meaning absent, in dense —
	// indexed by the key itself — or in slots, open-addressed by its hash.
	dense *[denseGroupLimit]int32
	slots []slot

	exact            bool  // Group.Exact of every group, set at hand-over
	scanned, matched int64 // Result.RowsScanned / RowsMatched
}

const (
	slabShift  = 6
	slabGroups = 1 << slabShift
)

// slot is one entry of the hash table: the key's hash beside the group, so a
// probe that hits reads one cache line. hashKey is a bijection on one word,
// and only a key of several is compared with the stored one.
type slot struct {
	tag uint64
	g   int32
}

// denseSlots recycles the direct-indexed arrays: a table takes one all zero
// and, done, zeroes the entries of the groups it met (release), so neither
// costs what clearing denseGroupLimit entries would. Their size is fixed;
// nothing that grows with a scan's groups outlives the scan.
var denseSlots = sync.Pool{New: func() any { return new([denseGroupLimit]int32) }}

func (b *boundQuery) newTable() *groupTable {
	t := &groupTable{cols: b.groups, words: b.words, stride: 4 * len(b.q.Aggs)}
	if b.dense > 0 {
		t.dense = denseSlots.Get().(*[denseGroupLimit]int32)
	} else {
		t.slots = make([]slot, 4*slabGroups)
	}
	return t
}

// release gives up what only finding a key needs; the groups stay.
func (t *groupTable) release() {
	if t.dense != nil {
		for g := 0; g < t.n; g++ {
			t.dense[t.key(g)[0]] = 0
		}
		denseSlots.Put(t.dense)
	}
	t.dense, t.slots = nil, nil
}

func (t *groupTable) key(g int) []uint64 {
	return t.keys[g>>slabShift][g&(slabGroups-1)*(t.words+1):][:t.words]
}

func (t *groupTable) rawRows(g int) *uint64 {
	return &t.keys[g>>slabShift][g&(slabGroups-1)*(t.words+1)+t.words]
}

func (t *groupTable) sums(g int) []float64 {
	return t.acc[g>>slabShift][g&(slabGroups-1)*t.stride:][:t.stride]
}

func hashKey(key []uint64) uint64 {
	var h uint64
	for _, k := range key {
		h = (h ^ k) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// find sets gids[j] to the number of the group with the j'th of keys, adding
// the groups (zeroed) that are new.
func (t *groupTable) find(keys []uint64, gids []int32) {
	if t.dense != nil {
		for j, k := range keys {
			s := &t.dense[k]
			if *s == 0 {
				*s = t.add(keys[j : j+1])
			}
			gids[j] = *s - 1
		}
		return
	}
	w := t.words
	for j := range gids {
		key := keys[j*w:][:w]
		tag := hashKey(key)
		mask := uint64(len(t.slots) - 1)
		for i := tag & mask; ; i = (i + 1) & mask {
			s := t.slots[i]
			if s.g == 0 {
				gids[j] = t.insert(i, tag, key)
				break
			}
			if s.tag == tag && (w == 1 || slices.Equal(t.key(int(s.g-1)), key)) {
				gids[j] = s.g - 1
				break
			}
		}
	}
}

// insert adds key's group at the empty slot i its probe ended on, in a table
// grown first when that would leave it more than half full.
func (t *groupTable) insert(i, tag uint64, key []uint64) int32 {
	if 2*t.n >= len(t.slots) {
		t.rehash(2 * len(t.slots))
		mask := uint64(len(t.slots) - 1)
		for i = tag & mask; t.slots[i].g != 0; i = (i + 1) & mask {
		}
	}
	t.slots[i] = slot{tag, t.add(key)}
	return t.slots[i].g - 1
}

// rehash re-seats every group in a table of size slots, from the slots alone.
func (t *groupTable) rehash(size int) {
	old := t.slots
	t.slots = make([]slot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.g == 0 {
			continue
		}
		i := s.tag & mask
		for t.slots[i].g != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// add appends a zeroed group and returns its number plus one.
func (t *groupTable) add(key []uint64) int32 {
	if t.n&(slabGroups-1) == 0 {
		t.keys = append(t.keys, make([]uint64, slabGroups*(t.words+1)))
		t.acc = append(t.acc, make([]float64, slabGroups*t.stride))
	}
	t.n++
	copy(t.key(t.n-1), key)
	return int32(t.n)
}

// fold moves the sums of the groups a worker's table met in the shard it just
// scanned into t, as Result.Merge adds a partial, and leaves them zero for
// the worker's next shard. (A group new to t is added to zeroes, which leaves
// the shard's sums as they are: a sum that started at +0 is never −0.) The
// groups themselves stay in p: most of a shard's groups were met in the
// shards before it, and a group already in the table costs a lookup, not an
// insert. to remembers, per group of p, its number in t plus one, so a group
// is looked up once per worker and scan, not once per shard. The first shard
// folded tells how many groups to make room for.
func (t *groupTable) fold(p *groupTable, to []int32) []int32 {
	if more := p.n - len(to); more > 0 {
		to = append(to, make([]int32, more)...)
	}
	if size := 1 << bits.Len(uint(2*p.n)); t.n == 0 && size > len(t.slots) && t.dense == nil {
		t.rehash(size)
	}
	for g := 0; g < p.n; g++ {
		rows := p.rawRows(g)
		if *rows == 0 {
			continue // met in an earlier shard only
		}
		if to[g] == 0 {
			t.find(p.key(g), to[g:g+1])
			to[g]++
		}
		k := int(to[g] - 1)
		*t.rawRows(k) += *rows
		*rows = 0
		dst, src := t.sums(k), p.sums(g)
		for i, x := range src {
			dst[i] += x
			src[i] = 0
		}
	}
	t.scanned += p.scanned
	t.matched += p.matched
	p.scanned, p.matched = 0, 0
	return to
}

// shardScan is one worker's state, reused from shard to shard: the table the
// shard is scanned into, where its groups sit in the scan's table (see fold),
// and the block scratch.
type shardScan struct {
	groups *groupTable
	to     []int32
	*blockScratch
}

// blockScratch is what the stages of a block hand one another. It is of a
// fixed size (but for keys, a word or more a row, and the foreign keys, 8 KB
// a dimension read through) and recycled from scan to scan: it is 52 KB a
// worker, several times what the scan of a small table allocates beside it. Every stage writes what the next one reads; nothing
// is cleared.
type blockScratch struct {
	sel  []int32   // offsets of the block's surviving rows
	buf  blockBuf  // window's buffers
	gids []int32   // group number per surviving row
	keys []uint64  // key per surviving row
	ws   []float64 // weight·scale per surviving row
	xs   []float64 // measure per surviving row
}

var blockScratches = sync.Pool{New: func() any {
	const n = scanBlockRows
	i32, f64 := make([]int32, 2*n), make([]float64, 2*n)
	return &blockScratch{sel: i32[:n:n], gids: i32[n:], ws: f64[:n:n], xs: f64[n:], buf: newBlockBuf()}
}}

func (b *boundQuery) newShardScan() *shardScan {
	s := &shardScan{groups: b.newTable(), blockScratch: blockScratches.Get().(*blockScratch)}
	s.buf.forget()
	if need := scanBlockRows * b.words; cap(s.keys) < need {
		s.keys = make([]uint64, need)
	}
	return s
}

// release ends the worker's use of its state.
func (s *shardScan) release() {
	s.groups.release()
	blockScratches.Put(s.blockScratch)
}

// scan evaluates source rows [lo, hi) into s.groups. It reads the source and
// the bound query but mutates nothing shared, so ranges of one source scan
// concurrently.
func (s *shardScan) scan(b *boundQuery, scale float64, lo, hi int) {
	t := s.groups
	na := len(b.q.Aggs)
	for n := 0; lo < hi; lo += n {
		n = blockLen(lo, hi)

		// Select. The exclude filter narrows first: RowsScanned counts the
		// rows it lets through.
		sel := s.sel[:n]
		copy(sel, identity[:])
		for i := range b.exclude {
			sel = b.exclude[i].keep(sel, lo, &s.buf)
		}
		t.scanned += int64(len(sel))
		for i := range b.preds {
			sel = b.preds[i].keep(sel, lo, &s.buf)
		}
		t.matched += int64(len(sel))
		if len(sel) == 0 {
			continue
		}

		// Group id.
		keys := s.keys[:len(sel)*b.words]
		clear(keys)
		for i := range b.groups {
			b.groups[i].addKeys(keys, b.words, sel, lo, &s.buf)
		}
		gids := s.gids[:len(sel)]
		t.find(keys, gids)

		// Accumulate, aggregate by aggregate; within one group and aggregate
		// the additions happen in row order.
		ws := s.ws[:len(sel)]
		if b.weight == nil {
			for j := range ws {
				ws[j] = 1 * scale
			}
		} else {
			measure(b.weight, ws, sel, lo, &s.buf)
			for j := range ws {
				ws[j] *= scale
			}
		}
		for _, g := range gids {
			*t.rawRows(int(g))++
		}
		for i, a := range b.q.Aggs {
			if a.Kind != Sum {
				// x is 1: w*x, x*x and w*(w-1)*x*x are w, 1 and w*(w-1) to
				// the bit.
				for j, g := range gids {
					w := ws[j]
					p := t.sums(int(g))[i:]
					p[0] += w
					p[na]++
					p[2*na]++
					p[3*na] += w * (w - 1)
				}
				continue
			}
			xs := s.xs[:len(sel)]
			measure(&b.aggs[i], xs, sel, lo, &s.buf)
			for j, g := range gids {
				w, x := ws[j], xs[j]
				p := t.sums(int(g))[i:]
				p[0] += w * x
				p[na] += x
				p[2*na] += x * x
				p[3*na] += w * (w - 1) * x * x
			}
		}
	}
}

// result hands the scan's table over as the Result's storage: no key is
// boxed or encoded and no Group built until a consumer asks (Result.index).
func (b *boundQuery) result(t *groupTable, markExact bool) *Result {
	t.release()
	t.exact = markExact
	return &Result{GroupBy: b.q.GroupBy, Aggs: b.q.Aggs, tbl: t, n: t.n, RowsScanned: t.scanned, RowsMatched: t.matched}
}
