package engine

import (
	"fmt"
	"math"
	"math/bits"

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
// Shard tables are folded into the scan's table in shard order, and Groups —
// boxed key Values, the encoded key string — are built from that one table
// when the scan ends (boundQuery.result). Nothing the kernel allocates grows
// with the number of source rows: a block is read from the one storage chunk
// it sits in (column.go), in place or decoded into a block-sized buffer.

const (
	// scanBlockRows is how many rows go through the kernel's stages at a
	// time: small enough that a block's scratch stays in the L1/L2 cache.
	scanBlockRows = 1024
	// denseGroupLimit bounds the direct-indexed regime. When every group
	// column is dictionary-coded and the product of the dictionary sizes is
	// at most this, a row's key indexes an array; otherwise it is hashed.
	denseGroupLimit = 1 << 16
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
	words, at := window(&e.view.ints, e.view.join(), sel, lo, buf.ints, buf.ids)
	k := 0
	for j, a := range at {
		sel[k] = sel[j] // branch-free: kept only if k moves on
		hit := uint64(words[a] & e.bits)
		k += int((hit|-hit)>>63 ^ 1)
	}
	return sel[:k]
}

// groupCol is one group-by column's share of the key. A string column
// contributes code·mul to its word — consecutive string columns share a word
// in mixed radix while the product of their dictionary sizes fits — and a
// numeric column owns a word holding the bit pattern AppendKey encodes.
type groupCol struct {
	view ColumnView
	word int
	mul  uint64
	card uint64
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
	strWord, place, coded := -1, uint64(1), true
	for i := range b.groups {
		g := &b.groups[i]
		if g.view.Type != String {
			coded = false
			g.word = b.words
			b.words++
			continue
		}
		g.card = uint64(max(len(g.view.Dict), 1))
		if over, _ := bits.Mul64(place, g.card); strWord < 0 || over != 0 {
			strWord, place = b.words, 1
			b.words++
		}
		g.word, g.mul = strWord, place
		place *= g.card
	}
	if b.words == 0 {
		b.words = 1 // no group-by columns: every row has key 0
	}
	if coded && b.words == 1 && place <= denseGroupLimit {
		b.dense = int(place)
	}
}

// value decodes the column's boxed value from a group's key.
func (g *groupCol) value(key []uint64) Value {
	switch g.view.Type {
	case String:
		return StringVal(g.view.Dict[key[g.word]/g.mul%g.card])
	case Int:
		return IntVal(int64(key[g.word]))
	default:
		return FloatVal(math.Float64frombits(key[g.word]))
	}
}

// blockBuf is the scratch a block's values are decoded or gathered into, one
// slice of scanBlockRows per storage type and one for foreign keys.
type blockBuf struct {
	ints   []int64
	floats []float64
	codes  []int32
	ids    []int64
}

func newBlockBuf() blockBuf {
	const n = scanBlockRows
	i64 := make([]int64, 2*n)
	return blockBuf{ints: i64[:n:n], floats: make([]float64, n), codes: make([]int32, n), ids: i64[n:]}
}

// identity[j] == j: the selection over values gathered in selection order.
var identity = func() (id [scanBlockRows]int32) {
	for j := range id {
		id[j] = int32(j)
	}
	return id
}()

// window returns the selected rows' values of one column: vals[at[j]] is the
// value of the block's j-th selected row. sel holds row offsets into the
// block starting at source row lo. There are three ways to read a block. A
// fact column's chunk that holds the values themselves (floats, integers
// that need their whole width, the open tail) is read in place: at is sel
// itself. A packed chunk is decoded, the selected rows only, into vals (in
// order, without looking at sel, while every row is still selected). A
// dimension column (fk not nil, and see ColumnView.sealLast) is gathered
// into vals through the block's foreign keys, themselves read in one of the
// first two ways into ids.
func window[T stored](s *chunked[T], fk *chunked[int64], sel []int32, lo int, vals []T, ids []int64) ([]T, []int32) {
	if fk != nil {
		rows, at := window(fk, nil, sel, lo, ids, nil)
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
	if len(sel) == c.rows()-o { // every row from o on: sel counts them off
		c.decode(vals[:len(sel)], nil, o)
		return vals, sel
	}
	c.decode(vals, sel, o)
	return vals, identity[:len(sel)]
}

// block returns the values of view rows [lo, lo+n) of one column, which must
// not cross a scan block edge.
func block[T stored](s *chunked[T], fk *chunked[int64], lo, n int, vals []T, ids []int64) []T {
	vals, _ = window(s, fk, identity[:n], lo, vals, ids)
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
		codes, at := window(&v.codes, v.join(), sel, lo, buf.codes, buf.ids)
		for j, a := range at {
			keys[j*words] += uint64(codes[a]) * g.mul
		}
	case Int:
		ints, at := window(&v.ints, v.join(), sel, lo, buf.ints, buf.ids)
		for j, a := range at {
			keys[j*words] = uint64(ints[a])
		}
	default:
		floats, at := window(&v.floats, v.join(), sel, lo, buf.floats, buf.ids)
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
		ints, at := window(&v.ints, v.join(), sel, lo, buf.ints, buf.ids)
		for j, a := range at {
			xs[j] = float64(ints[a])
		}
	case Float:
		floats, at := window(&v.floats, v.join(), sel, lo, buf.floats, buf.ids)
		for j, a := range at {
			xs[j] = floats[a]
		}
	default:
		clear(xs)
	}
}

// groupTable holds the groups of one shard, or of the whole scan, under their
// integer keys, in order of first appearance. Group g's key is
// keys[g*words:][:words]; its accumulators are acc[g*stride:][:stride], laid
// out as Group's four slices one after the other (Vals, RawSum, RawSumSq,
// VarAcc, one float per aggregate each).
type groupTable struct {
	words, stride int
	// slots maps a key to its group number plus one, zero meaning absent:
	// indexed by the key itself in the dense regime, open-addressed by the
	// key's hash otherwise.
	slots []int32
	dense bool

	keys    []uint64
	acc     []float64
	rawRows []int64

	scanned, matched int64 // Result.RowsScanned / RowsMatched
}

func (b *boundQuery) newTable() *groupTable {
	const room = 64 // groups before the first regrowth
	t := &groupTable{words: b.words, stride: 4 * len(b.q.Aggs), dense: b.dense > 0}
	t.slots = make([]int32, max(b.dense, 4*room))
	t.keys = make([]uint64, 0, room*t.words)
	t.acc = make([]float64, 0, room*t.stride)
	t.rawRows = make([]int64, 0, room)
	return t
}

func hashKey(key []uint64) uint64 {
	var h uint64
	for _, k := range key {
		h = (h ^ k) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// find returns the number of the group with the given key, adding the group
// (zeroed) when it is new.
func (t *groupTable) find(key []uint64) int32 {
	if t.dense {
		s := &t.slots[key[0]]
		if *s == 0 {
			*s = t.add(key)
		}
		return *s - 1
	}
	mask := uint64(len(t.slots) - 1)
probe:
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		g := t.slots[i]
		if g == 0 {
			if 2*len(t.rawRows) >= len(t.slots) {
				t.grow()
				return t.find(key)
			}
			t.slots[i] = t.add(key)
			return t.slots[i] - 1
		}
		for w, k := range t.keys[int(g-1)*t.words:][:t.words] {
			if k != key[w] {
				continue probe
			}
		}
		return g - 1
	}
}

func (t *groupTable) add(key []uint64) int32 {
	t.keys = append(t.keys, key[:t.words]...)
	for i := 0; i < t.stride; i++ {
		t.acc = append(t.acc, 0)
	}
	t.rawRows = append(t.rawRows, 0)
	return int32(len(t.rawRows))
}

// grow doubles the hash table and re-seats every group.
func (t *groupTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for g := range t.rawRows {
		i := hashKey(t.keys[g*t.words:][:t.words]) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(g + 1)
	}
}

// fold adds the groups a worker's table met in the shard it just scanned
// into t, as Result.Merge adds a partial. (A group new to t is added to
// zeroes, which leaves the shard's sums as they are: a sum that started at +0
// is never −0.) to remembers, per group of p, its number in t plus one, so a
// group is looked up once per worker and scan, not once per shard.
func (t *groupTable) fold(p *groupTable, to []int32) []int32 {
	if more := len(p.rawRows) - len(to); more > 0 {
		to = append(to, make([]int32, more)...)
	}
	for g, rows := range p.rawRows {
		if rows == 0 {
			continue // met in an earlier shard only
		}
		if to[g] == 0 {
			to[g] = t.find(p.keys[g*t.words:][:t.words]) + 1
		}
		k := int(to[g] - 1)
		dst := t.acc[k*t.stride:][:t.stride]
		for i, x := range p.acc[g*t.stride:][:t.stride] {
			dst[i] += x
		}
		t.rawRows[k] += rows
	}
	t.scanned += p.scanned
	t.matched += p.matched
	return to
}

// reset zeroes the table's accumulators for the worker's next shard. The
// groups themselves stay: most of a shard's groups were met in the shards
// before it, and a group already in the table costs a lookup, not an insert.
func (t *groupTable) reset() {
	clear(t.acc)
	clear(t.rawRows)
	t.scanned, t.matched = 0, 0
}

// shardScan is one worker's state, reused from shard to shard: the table the
// shard is scanned into, where its groups sit in the scan's table (see fold),
// and the block scratch, of a fixed size.
type shardScan struct {
	groups *groupTable
	to     []int32

	sel  []int32   // offsets of the block's surviving rows
	buf  blockBuf  // window's buffers
	gids []int32   // group number per surviving row
	keys []uint64  // key per surviving row
	ws   []float64 // weight·scale per surviving row
	xs   []float64 // measure per surviving row
}

func (b *boundQuery) newShardScan() *shardScan {
	const n = scanBlockRows
	i32, f64 := make([]int32, 2*n), make([]float64, 2*n)
	s := &shardScan{
		groups: b.newTable(),

		sel:  i32[:n:n],
		gids: i32[n:],
		keys: make([]uint64, n*b.words),
		ws:   f64[:n:n],
		xs:   f64[n:],
		buf:  newBlockBuf(),
	}
	return s
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
		for j := range gids {
			gids[j] = t.find(keys[j*b.words:][:b.words])
		}

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
			t.rawRows[g]++
		}
		for i, a := range b.q.Aggs {
			if a.Kind != Sum {
				// x is 1: w*x, x*x and w*(w-1)*x*x are w, 1 and w*(w-1) to
				// the bit.
				for j, g := range gids {
					w := ws[j]
					p := t.acc[int(g)*t.stride+i:]
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
				p := t.acc[int(g)*t.stride+i:]
				p[0] += w * x
				p[na] += x
				p[2*na] += x * x
				p[3*na] += w * (w - 1) * x * x
			}
		}
	}
}

// result materialises the scan's groups: the only place a scan boxes key
// values, encodes key strings and builds Groups. The Groups' accumulator
// slices are windows onto the table's storage, which the Result takes over.
func (b *boundQuery) result(t *groupTable, markExact bool) *Result {
	n, k, na := len(t.rawRows), len(b.groups), len(b.q.Aggs)
	res := &Result{
		GroupBy:     b.q.GroupBy,
		Aggs:        b.q.Aggs,
		groups:      make(map[string]*Group, n),
		RowsScanned: t.scanned,
		RowsMatched: t.matched,
	}
	groups := make([]Group, n)
	vals := make([]Value, n*k)
	ends := make([]int, n)
	enc := make([]byte, 0, n*16*max(k, 1))
	for g := range groups {
		var key []Value
		if k > 0 {
			key = vals[g*k : (g+1)*k : (g+1)*k]
			for i := range b.groups {
				key[i] = b.groups[i].value(t.keys[g*t.words:])
			}
		}
		enc = AppendKey(enc, key)
		ends[g] = len(enc)
		acc := t.acc[g*t.stride:]
		groups[g] = Group{
			Key:      key,
			Vals:     acc[0:na:na],
			RawSum:   acc[na : 2*na : 2*na],
			RawSumSq: acc[2*na : 3*na : 3*na],
			VarAcc:   acc[3*na : 4*na : 4*na],
			RawRows:  t.rawRows[g],
			Exact:    markExact,
		}
	}
	all, start := string(enc), 0
	for g, end := range ends {
		res.groups[all[start:end]] = &groups[g]
		start = end
	}
	return res
}
