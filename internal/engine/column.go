package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// chunkRows is how many rows one storage chunk holds. A column's values live
// in a list of chunks, every chunk but the last full. It is a power of two,
// a multiple of scanBlockRows and a divisor of ScanShardRows, so a scan block
// never crosses a chunk edge and the kernel reads a block from one chunk.
// A packed chunk is 128 bytes a bit of width, an exact allocator size class
// at most widths (and 8 KiB unpacked), so a chunk carries little slack.
// Measured against 4 096 on ingest_only: ARCHITECTURE.md §5.
const (
	chunkShift = 10
	chunkRows  = 1 << chunkShift
)

// Either array has a non-zero length, and the file stops compiling, when a
// chunk is not a whole number of scan blocks or a shard of chunks.
var (
	_ [0]struct{} = [chunkRows % scanBlockRows]struct{}{}
	_ [0]struct{} = [ScanShardRows % chunkRows]struct{}{}
)

// stored is what a column keeps per row: dictionary codes, integers or floats.
type stored interface{ int32 | int64 | float64 }

// chunk is the stored form of up to chunkRows consecutive rows, immutable
// once made: frame-of-reference packed — min plus one unsigned offset of width
// bits per row, row o's in bits [o·width, (o+1)·width) of b read as one
// little-endian number — when the chunk's integers span 2³² or less and less
// than their type holds, and the values themselves (wide) otherwise, floats
// always. b ends with its last offset's last byte (and is eight bytes at
// least): a full chunk is 128·width bytes, an allocator size class for most
// widths, which a pad to read past would leave.
type chunk[T stored] struct {
	wide  []T
	b     []byte
	min   T
	width uint8  // bits per offset in b, 1 to 32; 0 when wide
	n     uint16 // rows in b
}

// seal returns the stored form of vals at the narrowest width that holds
// them. A chunk that cannot be narrowed keeps vals itself.
func seal[T stored](vals []T) chunk[T] {
	full := 0 // bits of an unpacked value; floats are not packed
	switch any(vals).(type) {
	case []int32:
		full = 32
	case []int64:
		full = 64
	}
	if full == 0 || len(vals) == 0 {
		return chunk[T]{wide: vals}
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	// Taken in uint64, the span of MinInt64..MaxInt64 does not wrap.
	w := max(bits.Len64(uint64(hi)-uint64(lo)), 1)
	if w > 32 || w == full {
		return chunk[T]{wide: vals}
	}
	// Eight bytes, the least the allocator hands out, are the least a load reads.
	c := chunk[T]{b: make([]byte, max((w*len(vals)+7)/8, 8)), min: lo, width: uint8(w), n: uint16(len(vals))}
	// Offsets gather in acc, low bits first, and leave it four bytes at a time.
	var acc uint64
	have, p := 0, 0
	for _, v := range vals {
		acc |= uint64(v-lo) << have
		if have += w; have >= 32 {
			binary.LittleEndian.PutUint32(c.b[p:], uint32(acc))
			acc, have, p = acc>>32, have-32, p+4
		}
	}
	for ; have > 0; acc, have, p = acc>>8, have-8, p+1 {
		c.b[p] = byte(acc)
	}
	return c
}

// bytes is what the chunk holds, its list entry included.
func (c *chunk[T]) bytes() int64 {
	return int64(unsafe.Sizeof(*c)) + int64(len(c.b)) + int64(len(c.wide))*int64(unsafe.Sizeof(c.min))
}

func (c *chunk[T]) rows() int {
	if c.width == 0 {
		return len(c.wide)
	}
	return int(c.n)
}

func (c *chunk[T]) at(o int) T {
	if c.width == 0 {
		return c.wide[o]
	}
	// A load is eight bytes, and the last ones of a chunk end where b does
	// instead of starting at the offset's byte.
	w, b := int(c.width), c.b
	p := min(o*w>>3, len(b)-8)
	return c.min + T(binary.LittleEndian.Uint64(b[p:p+8])>>((o*w-8*p)&63)&lowBits[w&63])
}

// decode sets dst[j] to the chunk's row lo+sel[j], or, when sel is nil, to
// row lo+j for all of dst: the rows in order, read without a selection. A
// byte an offset is read as bytes; any other width is shifted out of
// eight-byte loads (unpack8, unpack, pick).
func (c *chunk[T]) decode(dst []T, sel []int32, lo int) {
	if sel != nil {
		dst = dst[:len(sel)]
	}
	switch w, b, base := int(c.width), c.b, c.min; {
	case w == 0: // read in place by whoever selects (window): only copied whole
		copy(dst, c.wide[lo:])
	case w == 8 && sel == nil:
		for j, x := range b[lo:][:len(dst)] {
			dst[j] = base + T(x)
		}
	case w == 8:
		b = b[lo:]
		for j, o := range sel {
			dst[j] = base + T(b[o])
		}
	case sel != nil:
		pick(dst, b, base, w, sel, lo*w)
	default:
		// Eight rows at a time while they start a byte and are narrow enough,
		// one at a time after that, and the chunk's last few by at.
		j := 0
		if w <= 16 && lo&7 == 0 {
			j = unpack8(dst, b[lo>>3*w:], base, w)
		}
		for j += unpack(dst[j:], b, base, w, lo+j); j < len(dst); j++ {
			dst[j] = c.at(lo + j)
		}
	}
}

// unpack8 is decode of rows in order, eight at a time, at a width of 16 bits
// at most: the eight offsets are w bytes from b's first on, the first four in
// its first eight bytes and the last four in its last eight. It returns short
// of the rows that are not eight together, or fill less than eight bytes.
func unpack8[T stored](dst []T, b []byte, base T, w int) int {
	mask, q := uint64(1)<<w-1, max(w-8, 0)
	n := 0
	for ; n+8 <= len(dst) && len(b) >= q+8; n, b = n+8, b[w:] {
		x, y := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[q:])>>((4*w-8*q)&63)
		d := dst[n : n+8 : n+8]
		d[0], d[4] = base+T(x&mask), base+T(y&mask)
		x, y = x>>(w&63), y>>(w&63)
		d[1], d[5] = base+T(x&mask), base+T(y&mask)
		x, y = x>>(w&63), y>>(w&63)
		d[2], d[6] = base+T(x&mask), base+T(y&mask)
		x, y = x>>(w&63), y>>(w&63)
		d[3], d[7] = base+T(x&mask), base+T(y&mask)
	}
	return n
}

// unpack is decode of rows in order at any width: the offsets are shifted out
// of acc, which is topped up four bytes at a time. It returns short of the
// rows whose top-up would read past b's end.
func unpack[T stored](dst []T, b []byte, base T, w, lo int) int {
	mask, bit := uint64(1)<<w-1, lo*w
	p := min(bit>>3, len(b)-8)
	acc, have := binary.LittleEndian.Uint64(b[p:])>>((bit-8*p)&63), 64-(bit-8*p)
	b = b[p+8:]
	for j := range dst {
		if have < w { // under 32 bits: room for 32 more
			if len(b) < 4 {
				return j
			}
			acc |= uint64(binary.LittleEndian.Uint32(b)) << (have & 63)
			have, b = have+32, b[4:]
		}
		dst[j] = base + T(acc&mask)
		acc, have = acc>>(w&63), have-w
	}
	return len(dst)
}

// pick is decode through a selection at any width, from the given bit on. A load is eight bytes, and the last ones of a chunk end
// where b does instead of starting at the offset's byte.
func pick[T stored](dst []T, b []byte, base T, w int, sel []int32, from int) {
	mask, last := uint64(1)<<w-1, len(b)-8
	dst = dst[:len(sel)]
	for j, o := range sel {
		bit := from + int(o)*w
		p := min(bit>>3, last)
		dst[j] = base + T(binary.LittleEndian.Uint64(b[p:p+8])>>((bit-8*p)&63)&mask)
	}
}

// chunked is the row storage of one column: a list of sealed chunks of
// chunkRows rows each and, after them, the last chunk — the open tail of a
// table that is appended to, or the short sealed end of one built in one go
// (gather, ReadBinary).
//
// A sealed chunk is never written again, and every version of the table holds
// the same one. The open tail holds its values themselves, in an array as
// long as its capacity. The writer fills it in place, beyond the length any
// published version reads, and seals it when it is full: the packed chunk
// goes on the end of the list — again beyond what an older version reads —
// and this version starts a new tail, while older versions keep reading the
// rows they have from the old one. Both are the copy-on-write rule of
// append.go; sealing replaces nothing an older version holds.
type chunked[T stored] struct {
	sealed []chunk[T]
	last   chunk[T]
	held   int64 // bytes the sealed list holds, entries included
}

// chunk returns chunk k.
func (s *chunked[T]) chunk(k int) *chunk[T] {
	if k < len(s.sealed) {
		return &s.sealed[k]
	}
	return &s.last
}

func (s *chunked[T]) at(i int) T { return s.chunk(i >> chunkShift).at(i & (chunkRows - 1)) }

// lowBits[w] has the low w bits set.
var lowBits = func() (m [64]uint64) {
	for w := range m {
		m[w] = 1<<w - 1
	}
	return m
}()

// intBounds returns a range that holds the first rows values of s: for a
// packed chunk its minimum and the most its width can add to it, for the open
// tail (or a short last chunk) the values it has — and all of int64 once a
// full chunk could not be packed, its span alone being 2³² or more.
func intBounds(s *chunked[int64], rows int) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for k := 0; k<<chunkShift < rows; k++ {
		switch c := s.chunk(k); {
		case c.width != 0:
			top := c.min + 1<<c.width - 1
			if top < c.min {
				top = math.MaxInt64
			}
			lo, hi = min(lo, c.min), max(hi, top)
		case k < len(s.sealed):
			return math.MinInt64, math.MaxInt64
		default:
			for _, v := range c.wide[:rows-k<<chunkShift] {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
	}
	return lo, hi
}

// bytes is what the storage holds: nothing for a column of another type.
func (s *chunked[T]) bytes() int64 {
	if s.sealed == nil && s.last.rows() == 0 {
		return 0
	}
	return s.held + s.last.bytes()
}

// add seals vals as the next chunk, the last one if they are fewer than
// chunkRows. It returns vals for the caller to fill again, or nil when the
// chunk kept them.
func (s *chunked[T]) add(vals []T) []T {
	c := seal(vals)
	if len(vals) == chunkRows {
		s.sealed = append(s.sealed, c)
		s.held += c.bytes()
	} else {
		s.last = c
	}
	if c.width == 0 {
		return nil
	}
	return vals
}

// push writes v as row n, the row after the last one written. *shared says
// that an older version may hold the open tail too.
func (s *chunked[T]) push(n int, v T, shared *bool) {
	o, t := n&(chunkRows-1), &s.last
	if o < len(t.wide)-1 { // room in an open tail (a sealed one has no wide), and not its last row
		t.wide[o] = v
		return
	}
	s.pushSlow(o, v, shared)
}

// pushSlow is push where the tail must be made, grown, or sealed after the row.
func (s *chunked[T]) pushSlow(o int, v T, shared *bool) {
	t := &s.last
	if t.width != 0 || o == len(t.wide) {
		// No room: the tail was sealed, or the table ends in a short chunk,
		// packed or not, or in a tail that grows by doubling from one. Older
		// versions read that chunk, so this one goes on in a copy.
		size := chunkRows
		if o > 0 {
			size = min(chunkRows, max(2*o, 16))
		}
		wide := make([]T, size)
		t.decode(wide[:o], nil, 0)
		*t, *shared = chunk[T]{wide: wide}, false
	}
	t.wide[o] = v
	if o == chunkRows-1 {
		s.sealTail(*shared)
	}
}

// pushChunk writes vals, a whole chunk's rows, from a chunk edge on: what
// push does row by row, in one copy into the tail and one seal.
func (s *chunked[T]) pushChunk(vals []T, shared *bool) {
	if len(s.last.wide) == 0 { // no tail at an edge, or a sealed one: as pushSlow at row 0
		s.last, *shared = chunk[T]{wide: make([]T, chunkRows)}, false
	}
	copy(s.last.wide, vals)
	s.sealTail(*shared)
}

// sealTail seals the full open tail onto the end of the list.
func (s *chunked[T]) sealTail(shared bool) {
	if s.add(s.last.wide) == nil || shared {
		// The chunk kept the values themselves, or an older version reads
		// its rows from this tail: the next row starts another. Otherwise
		// the tail is filled again, and a table that is built by one
		// version allocates one per column, not one per chunk.
		s.last = chunk[T]{}
	}
}

// own replaces chunk k by a copy for set to write into. The list must be this
// version's own (see Table.SetRow).
func (s *chunked[T]) own(k int) {
	c := s.chunk(k)
	c.wide, c.b = append([]T(nil), c.wide...), append([]byte(nil), c.b...)
}

// set overwrites row i, whose chunk must be this version's own: in place when
// the chunk holds the values themselves or v is within its span, and else by
// sealing the chunk again, at the width v needs.
func (s *chunked[T]) set(i int, v T) {
	k, o := i>>chunkShift, i&(chunkRows-1)
	c := s.chunk(k)
	switch off := uint64(v) - uint64(c.min); {
	case c.width == 0:
		c.wide[o] = v
	case v >= c.min && off>>c.width == 0:
		// The eight bytes at reads, with the row's bits replaced.
		w, b := int(c.width), c.b
		p := min(o*w>>3, len(b)-8)
		at := o*w - 8*p
		binary.LittleEndian.PutUint64(b[p:], binary.LittleEndian.Uint64(b[p:])&^(lowBits[w]<<at)|off<<at)
	default:
		vals := make([]T, c.rows())
		c.decode(vals, nil, 0)
		vals[o] = v
		was := c.bytes()
		*c = seal(vals)
		if k < len(s.sealed) {
			s.held += c.bytes() - was
		}
	}
}

// Column is a typed column of values, stored in chunks (see chunked). String
// columns are dictionary-encoded: distinct strings are stored once and rows
// hold codes, at as many bits each as the span of the chunk's codes needs,
// which keeps wide categorical schemas (like the 245-column SALES database in
// the paper) compact.
type Column struct {
	Name string
	Type Type

	n      int // rows in this version
	ints   chunked[int64]
	floats chunked[float64]
	codes  chunked[int32]
	dict   []string
	dictIx map[string]int32
	// dictBytes is the length of the dictionary's strings, kept as it grows
	// so that the table's size is read off, not summed.
	dictBytes int64

	*lineage
}

// lineage is what every version of a column shares (see CloneForAppend), and
// only a writer looks at.
type lineage struct {
	// written is how many rows the chunks hold. Only the longest version may
	// append: a shorter one would write over rows a newer version already
	// published.
	written int
	// tailShared says the open tail may be held by more than one version.
	tailShared bool
}

// lineageRule is what a stale writer is told.
const lineageRule = "a table has one writer lineage: only its newest version may be appended to"

// NewColumn returns an empty column of the given type.
func NewColumn(name string, t Type) *Column {
	return newColumn(name, t, 0)
}

// newColumn returns a column of n rows whose storage the caller sets.
func newColumn(name string, t Type, n int) *Column {
	c := &Column{Name: name, Type: t, n: n, lineage: &lineage{written: n}}
	if t == String {
		c.dictIx = make(map[string]int32)
	}
	return c
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return c.n }

// stale reports whether a newer version of the column has rows this one
// lacks.
func (c *Column) stale() bool { return c.n != c.written }

// next claims the k rows after the last one for an append and returns the
// first one's index.
func (c *Column) next(k int) int {
	if c.stale() {
		panic(fmt.Sprintf("engine: append to column %q at %d rows, %d written: %s", c.Name, c.n, c.written, lineageRule))
	}
	c.n += k
	c.written = c.n
	return c.n - k
}

// appendAll appends vals to s, the storage of column c, which must be of type
// t, as push would one by one. A whole chunk's worth that starts on a chunk
// edge is sealed as the next chunk in one go.
func appendAll[T stored](c *Column, t Type, s *chunked[T], vals []T) {
	if c.Type != t {
		panic(fmt.Sprintf("engine: append of %s values to %s column %q", t, c.Type, c.Name))
	}
	if len(vals) == chunkRows && c.n&(chunkRows-1) == 0 {
		c.next(chunkRows)
		s.pushChunk(vals, &c.tailShared)
		return
	}
	for _, v := range vals {
		s.push(c.next(1), v, &c.tailShared)
	}
}

// Append adds a value to the column. The value type must match.
func (c *Column) Append(v Value) {
	if v.T != c.Type {
		panic(fmt.Sprintf("engine: append %s value to %s column %q", v.T, c.Type, c.Name))
	}
	switch c.Type {
	case Int:
		c.ints.push(c.next(1), v.I, &c.tailShared)
	case Float:
		c.floats.push(c.next(1), v.F, &c.tailShared)
	default:
		c.codes.push(c.next(1), c.code(v.S), &c.tailShared)
	}
}

// AppendInt adds an int64 without boxing. The column must be Int-typed.
func (c *Column) AppendInt(v int64) {
	if c.Type != Int {
		panic(fmt.Sprintf("engine: AppendInt on %s column %q", c.Type, c.Name))
	}
	c.ints.push(c.next(1), v, &c.tailShared)
}

// AppendFloat adds a float64 without boxing. The column must be Float-typed.
func (c *Column) AppendFloat(v float64) {
	if c.Type != Float {
		panic(fmt.Sprintf("engine: AppendFloat on %s column %q", c.Type, c.Name))
	}
	c.floats.push(c.next(1), v, &c.tailShared)
}

// AppendString adds a string without boxing. The column must be String-typed.
func (c *Column) AppendString(v string) {
	if c.Type != String {
		panic(fmt.Sprintf("engine: AppendString on %s column %q", c.Type, c.Name))
	}
	c.codes.push(c.next(1), c.code(v), &c.tailShared)
}

// AppendInts adds vals in order, as AppendInt does one at a time. The column
// must be Int-typed.
func (c *Column) AppendInts(vals []int64) { appendAll(c, Int, &c.ints, vals) }

// AppendFloats adds vals in order, as AppendFloat does one at a time. The
// column must be Float-typed.
func (c *Column) AppendFloats(vals []float64) { appendAll(c, Float, &c.floats, vals) }

// AppendCodes adds strings the dictionary already holds (Intern), by code,
// in order, as AppendString does one at a time by value. The column must be
// String-typed.
func (c *Column) AppendCodes(codes []int32) {
	for _, code := range codes {
		if code < 0 || int(code) >= len(c.dict) {
			panic(fmt.Sprintf("engine: AppendCodes(%d) on %s column %q with %d dictionary entries", code, c.Type, c.Name, len(c.dict)))
		}
	}
	appendAll(c, String, &c.codes, codes)
}

// Intern returns the dictionary code of s, adding s to the dictionary when it
// is new, without appending a row: the code of a string a caller is about to
// append by code. The column must be String-typed.
func (c *Column) Intern(s string) int32 { return c.code(s) }

// code returns the dictionary code of s, adding s to the dictionary when it
// is new.
func (c *Column) code(s string) int32 {
	code, ok := c.dictIx[s]
	if !ok {
		code = c.addDict(s)
	}
	return code
}

// addDict gives s, which the dictionary must not hold, the next code.
func (c *Column) addDict(s string) int32 {
	code := int32(len(c.dict))
	c.dict = append(c.dict, s)
	c.dictIx[s] = code
	c.dictBytes += int64(len(s))
	return code
}

// Value returns the value at row i.
func (c *Column) Value(i int) Value {
	switch c.Type {
	case Int:
		return IntVal(c.ints.at(i))
	case Float:
		return FloatVal(c.floats.at(i))
	default:
		return StringVal(c.dict[c.codes.at(i)])
	}
}

// Int returns the raw int64 at row i. The column must be Int-typed.
func (c *Column) Int(i int) int64 { return c.ints.at(i) }

// Float returns the value at row i as a float64 for aggregation.
func (c *Column) Float(i int) float64 {
	switch c.Type {
	case Int:
		return float64(c.ints.at(i))
	case Float:
		return c.floats.at(i)
	default:
		return 0
	}
}

// Code returns the dictionary code at row i. The column must be String-typed.
func (c *Column) Code(i int) int32 { return c.codes.at(i) }

// DictSize returns the dictionary size. The column must be String-typed.
func (c *Column) DictSize() int { return len(c.dict) }

// DictValue returns the string for a dictionary code.
func (c *Column) DictValue(code int32) string { return c.dict[code] }
