package engine

import "fmt"

// chunkRows is how many rows one storage chunk holds. A column's values live
// in a list of chunks, every chunk but the last full. It is a power of two,
// a multiple of scanBlockRows and a divisor of ScanShardRows, so a scan block
// never crosses a chunk edge and the kernel reads a block as one plain slice.
// One scan block per chunk is also an exact allocator size class (8 KiB of
// int64/float64, 4 KiB of codes), so a chunk carries no slack. Measured
// against 4 096 on ingest_only: ARCHITECTURE.md §5.
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

// chunked is the row storage of one column: row i is s[i/chunkRows][i%chunkRows].
//
// A chunk whose rows are all written is sealed: nothing writes to it again,
// and every version of the table holds the same backing array. The last
// chunk is the open tail. The writer fills it in place, beyond the length any
// published version reads, and the list of chunks grows the same way; both
// are the copy-on-write rule of append.go. Every entry has len == cap, so
// growing a version never rewrites a slice header an older version reads.
type chunked[T any] [][]T

// makeChunked returns storage for exactly n rows: full chunks and a tail cut
// to length, as a table that is built once (gather, ReadBinary) wants it.
func makeChunked[T any](n int) chunked[T] {
	s := make(chunked[T], 0, (n+chunkRows-1)/chunkRows)
	for ; n > 0; n -= chunkRows {
		s = append(s, make([]T, min(n, chunkRows)))
	}
	return s
}

func (s chunked[T]) at(i int) T { return s[i>>chunkShift][i&(chunkRows-1)] }

// from returns row lo and the rows after it in its chunk. A scan block never
// crosses a chunk edge, so the kernel reads a block through this one slice.
func (s chunked[T]) from(lo int) []T { return s[lo>>chunkShift][lo&(chunkRows-1):] }

// run returns the rows of [lo, hi) that sit in lo's chunk; walking a range
// that crosses chunk edges is
//
//	for w := s.run(lo, hi); len(w) > 0; w = s.run(lo, hi) { ...; lo += len(w) }
func (s chunked[T]) run(lo, hi int) []T {
	if lo >= hi {
		return nil
	}
	w := s.from(lo)
	return w[:min(len(w), hi-lo)]
}

// push writes v as row n, the row after the last one written.
func (s *chunked[T]) push(n int, v T) {
	k, o := n>>chunkShift, n&(chunkRows-1)
	switch {
	case k == len(*s):
		*s = append(*s, make([]T, chunkRows))
	case o == len((*s)[k]):
		// A tail that was cut to length. Older versions read its entry, so
		// the grown copy goes into a list of this version's own.
		grown := make([]T, min(chunkRows, max(2*o, 16)))
		copy(grown, (*s)[k])
		*s = append(chunked[T](nil), *s...)
		(*s)[k] = grown
	}
	(*s)[k][o] = v
}

// own replaces chunk k by a copy, for SetRow to write into. The list must
// already be this version's own.
func (s chunked[T]) own(k int) { s[k] = append([]T(nil), s[k]...) }

// Column is a typed column of values, stored in chunks (see chunked). String
// columns are dictionary-encoded: distinct strings are stored once and rows
// hold int32 codes, which keeps wide categorical schemas (like the 245-column
// SALES database in the paper) compact.
type Column struct {
	Name string
	Type Type

	n      int // rows in this version
	ints   chunked[int64]
	floats chunked[float64]
	codes  chunked[int32]
	dict   []string
	dictIx map[string]int32

	// written is how many rows the chunks hold, shared by every version of
	// the column (see CloneForAppend). Only the longest version may append:
	// a shorter one would write over rows a newer version already published.
	written *int
}

// lineageRule is what a stale writer is told.
const lineageRule = "a table has one writer lineage: only its newest version may be appended to"

// NewColumn returns an empty column of the given type.
func NewColumn(name string, t Type) *Column {
	return newColumn(name, t, 0)
}

// newColumn returns a column whose n rows the caller fills in directly.
func newColumn(name string, t Type, n int) *Column {
	written := n
	c := &Column{Name: name, Type: t, n: n, written: &written}
	switch t {
	case Int:
		c.ints = makeChunked[int64](n)
	case Float:
		c.floats = makeChunked[float64](n)
	default:
		c.codes = makeChunked[int32](n)
		c.dictIx = make(map[string]int32)
	}
	return c
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return c.n }

// stale reports whether a newer version of the column has rows this one
// lacks.
func (c *Column) stale() bool { return c.n != *c.written }

// next claims the row after the last one for an append and returns its index.
func (c *Column) next() int {
	if c.stale() {
		panic(fmt.Sprintf("engine: append to column %q at %d rows, %d written: %s", c.Name, c.n, *c.written, lineageRule))
	}
	c.n++
	*c.written = c.n
	return c.n - 1
}

// Append adds a value to the column. The value type must match.
func (c *Column) Append(v Value) {
	if v.T != c.Type {
		panic(fmt.Sprintf("engine: append %s value to %s column %q", v.T, c.Type, c.Name))
	}
	switch c.Type {
	case Int:
		c.ints.push(c.next(), v.I)
	case Float:
		c.floats.push(c.next(), v.F)
	default:
		c.codes.push(c.next(), c.code(v.S))
	}
}

// AppendInt adds an int64 without boxing. The column must be Int-typed.
func (c *Column) AppendInt(v int64) {
	if c.Type != Int {
		panic(fmt.Sprintf("engine: AppendInt on %s column %q", c.Type, c.Name))
	}
	c.ints.push(c.next(), v)
}

// AppendFloat adds a float64 without boxing. The column must be Float-typed.
func (c *Column) AppendFloat(v float64) {
	if c.Type != Float {
		panic(fmt.Sprintf("engine: AppendFloat on %s column %q", c.Type, c.Name))
	}
	c.floats.push(c.next(), v)
}

// AppendString adds a string without boxing. The column must be String-typed.
func (c *Column) AppendString(v string) {
	if c.Type != String {
		panic(fmt.Sprintf("engine: AppendString on %s column %q", c.Type, c.Name))
	}
	c.codes.push(c.next(), c.code(v))
}

// code returns the dictionary code of s, adding s to the dictionary when it
// is new.
func (c *Column) code(s string) int32 {
	code, ok := c.dictIx[s]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, s)
		c.dictIx[s] = code
	}
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

// DistinctApprox returns the number of distinct values seen so far for
// dictionary-encoded columns, or -1 for numeric columns (unknown without a
// scan).
func (c *Column) DistinctApprox() int {
	if c.Type == String {
		return len(c.dict)
	}
	return -1
}

// Code returns the dictionary code at row i. The column must be String-typed.
func (c *Column) Code(i int) int32 { return c.codes.at(i) }

// DictSize returns the dictionary size. The column must be String-typed.
func (c *Column) DictSize() int { return len(c.dict) }

// DictValue returns the string for a dictionary code.
func (c *Column) DictValue(code int32) string { return c.dict[code] }
