package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"unsafe"

	"dynsample/internal/binio"
)

// Table is a named relation of typed columns. Under a weighted sampling
// strategy a sample table's rows additionally carry their weight: as a column
// like any other, under a reserved name.
type Table struct {
	Name string

	cols   []*Column
	byName map[string]int
	rows   int

	// owned holds the chunk numbers SetRow has copied for this version.
	owned map[int]bool
	// arrays is this version's columns unpacked, for a join to read.
	arrays *columnArrays
}

// columnArrays holds, per column of one table version, every row of the
// column in one array ([]int64, []float64 or []int32 by its type), which a
// star join reads by index: a dimension's rows are read in the order of the
// fact rows that refer to them, and a packed chunk read row by row costs a
// branch and a shift each. A column's array is built on its first read
// through a join (ColumnView.unpack) and shared by every database version
// and fact slice that holds the table. A version the Appender grows
// (CloneForAppend) or SetRow writes to starts a new holder, so no version
// reads an array of rows that are not its own.
type columnArrays struct {
	mu   sync.Mutex
	rows int   // the table's rows when cols was made
	cols []any // by column position; nil until read
}

// unpacked returns every row of column j as one array, building it on the
// first call. Readers of one version may call it at once; they share one
// array.
func (t *Table) unpacked(j int) any {
	u := t.arrays
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.rows != t.rows || len(u.cols) != len(t.cols) { // this version grew in place
		u.rows, u.cols = t.rows, make([]any, len(t.cols))
	}
	if u.cols[j] == nil {
		switch c := t.cols[j]; c.Type {
		case Int:
			u.cols[j] = unpackRows(&c.ints, c.n)
		case Float:
			u.cols[j] = unpackRows(&c.floats, c.n)
		default:
			u.cols[j] = unpackRows(&c.codes, c.n)
		}
	}
	return u.cols[j]
}

// unpackRows decodes the first n rows of s into one array.
func unpackRows[T stored](s *chunked[T], n int) []T {
	out := make([]T, n)
	for lo := 0; lo < n; lo += chunkRows {
		s.chunk(lo>>chunkShift).decode(out[lo:min(n, lo+chunkRows)], nil, 0)
	}
	return out
}

// Names under ReservedPrefix belong to the columns a sample row keeps beside
// the view's: when rows are weighted, one Float column of inverse sampling
// rates. (Tables an older build wrote may hold Int columns of membership mask
// words under the prefix too; they are read and kept like any column.) The
// prefix is no SQL identifier character, and every place a column name
// arrives from outside the program refuses it (CheckColumnName), so they
// cannot collide with data. They are physical-only, as foreign keys are: a
// Database binds them for View and leaves them out of Columns.
const (
	ReservedPrefix = "@"
	WeightColumn   = ReservedPrefix + "weight"
)

// reservedType is the type a column under a reserved name has.
func reservedType(name string) Type {
	if name == WeightColumn {
		return Float
	}
	return Int
}

// CheckColumnName refuses a column name that arrived from outside the
// program and starts with the reserved prefix.
func CheckColumnName(name string) error {
	if strings.HasPrefix(name, ReservedPrefix) {
		return fmt.Errorf("engine: column name %q starts with %q, which is reserved for sample weight columns", name, ReservedPrefix)
	}
	return nil
}

// NewTable returns a table of the given columns, none under a reserved name.
func NewTable(name string, cols ...*Column) *Table {
	t := newTable(name, len(cols))
	for _, c := range cols {
		t.AddColumn(c)
	}
	return t
}

func newTable(name string, ncols int) *Table {
	return &Table{Name: name, byName: make(map[string]int, ncols), arrays: new(columnArrays)}
}

func (t *Table) addColumn(c *Column) {
	if _, dup := t.byName[c.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate column %q in table %q", c.Name, t.Name))
	}
	if c.Len() != t.rows && len(t.cols) > 0 {
		panic(fmt.Sprintf("engine: column %q has %d rows, table %q has %d", c.Name, c.Len(), t.Name, t.rows))
	}
	if len(t.cols) == 0 {
		t.rows = c.Len()
	}
	t.byName[c.Name] = len(t.cols)
	t.cols = append(t.cols, c)
}

// AddColumn appends a column definition; its length must match the table and
// its name must not be reserved.
func (t *Table) AddColumn(c *Column) {
	if err := CheckColumnName(c.Name); err != nil {
		panic(err)
	}
	t.addColumn(c)
}

// addWeights stores one weight per row as the WeightColumn. A nil slice adds
// nothing.
func (t *Table) addWeights(weights []float64) {
	if weights != nil {
		c := newColumn(WeightColumn, Float, len(weights))
		c.floats = fillRows(len(weights), func(vals []float64, lo int) { copy(vals, weights[lo:]) })
		t.addColumn(c)
	}
}

// RowWeight returns the inverse-sampling-rate weight of a row: 1 in a table
// without a weight column.
func (t *Table) RowWeight(row int) float64 {
	if c := t.Column(WeightColumn); c != nil {
		return c.Float(row)
	}
	return 1
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the table's columns in schema order.
// The returned slice is shared; callers must not modify it.
func (t *Table) Columns() []*Column { return t.cols }

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.cols[i]
	}
	return nil
}

// AppendRow adds a full row of values in schema order.
func (t *Table) AppendRow(vals ...Value) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("engine: row has %d values, table %q has %d columns", len(vals), t.Name, len(t.cols)))
	}
	for i, v := range vals {
		t.cols[i].Append(v)
	}
	t.rows++
}

// EndRow records one appended row after values were pushed directly onto
// every column (the allocation-free bulk-load path used by the generators).
// It panics if any column is out of step.
func (t *Table) EndRow() {
	for _, c := range t.cols {
		if c.Len() != t.rows+1 {
			panic(fmt.Sprintf("engine: EndRow on table %q: column %q has %d rows, want %d", t.Name, c.Name, c.Len(), t.rows+1))
		}
	}
	t.rows++
}

// ColumnNames returns the column names in schema order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// Checksum is a CRC-32C over the first rows rows of the table: each column's
// name and type, then its values in row order — an integer or a float as its
// eight bytes, a string as its length and bytes. Two tables agree on it when
// they hold the same values in those rows under the same schema, however
// their chunks or dictionaries are laid out.
func (t *Table) Checksum(rows int) uint32 {
	var crc uint32
	buf := make([]byte, 0, 4096)
	for _, c := range t.cols {
		buf = binio.AppendString(append(buf[:0], byte(c.Type)), c.Name)
		for i := range min(rows, c.n) {
			if len(buf) >= 4000 {
				crc, buf = binio.Checksum(crc, buf), buf[:0]
			}
			switch c.Type {
			case Int:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Int(i)))
			case Float:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.floats.at(i)))
			default:
				buf = binio.AppendString(buf, c.dict[c.Code(i)])
			}
		}
		crc = binio.Checksum(crc, buf)
	}
	return crc
}

// ApproxBytes is the logical size of the table's data — 8 bytes a numeric
// value, 4 a dictionary code, whatever width the chunks store them at — which
// is what the space-overhead experiment (§5.4.2) and the sample budgets count:
// values, not encodings. StoredBytes is what is held.
func (t *Table) ApproxBytes() int64 {
	var b int64
	for _, c := range t.cols {
		if c.Type == String {
			b += c.dictBytes + int64(c.n)*4
		} else {
			b += int64(c.n) * 8
		}
	}
	return b
}

// StoredBytes is what the table holds in memory: a column's header, its
// chunks at the widths they were sealed at with their list entries, the open
// tail at its capacity, and a dictionary's strings and entries.
func (t *Table) StoredBytes() int64 {
	var b int64
	for _, c := range t.cols {
		b += columnBytes + c.dictBytes + int64(len(c.dict))*dictEntryBytes
		b += c.ints.bytes() + c.floats.bytes() + c.codes.bytes()
	}
	return b
}

const (
	columnBytes = int64(unsafe.Sizeof(Column{}) + unsafe.Sizeof(lineage{}))
	// dictEntryBytes is what a dictionary entry holds beside its string's
	// bytes: the header in dict and the slot in dictIx, each with the room
	// that growing by doubling leaves. Measured, go1.24: 60 to 90.
	dictEntryBytes = 80
)
