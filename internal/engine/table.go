package engine

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"dynsample/internal/bitmask"
)

// Table is a named relation of typed columns. A sample table's rows
// additionally carry their membership bitmask (the paper's extra bitmask
// field, §4.2.1) and, under a weighted sampling strategy, their weight: as
// columns like any other, under reserved names.
type Table struct {
	Name string

	cols   []*Column
	byName map[string]int
	rows   int

	// owned holds the chunk numbers SetRow has copied for this version.
	owned map[int]bool
}

// Names under ReservedPrefix belong to the columns a sample row keeps beside
// the view's: one Int column per 64-bit word of its membership mask and, when
// rows are weighted, one Float column of inverse sampling rates. The prefix is
// no SQL identifier character, and every place a column name arrives from
// outside the program refuses it (CheckColumnName), so they cannot collide
// with data. They are physical-only, as foreign keys are: a Database binds
// them for View and leaves them out of Columns.
const (
	ReservedPrefix = "@"
	WeightColumn   = ReservedPrefix + "weight"
)

// MaskColumn names the column holding bits [64w, 64w+64) of the mask.
func MaskColumn(w int) string { return ReservedPrefix + "mask" + strconv.Itoa(w) }

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
		return fmt.Errorf("engine: column name %q starts with %q, which is reserved for sample mask and weight columns", name, ReservedPrefix)
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
	return &Table{Name: name, byName: make(map[string]int, ncols)}
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

// addSampleColumns stores one mask and one weight per row as columns: word w
// of every mask in MaskColumn(w), the weights in WeightColumn. A nil slice
// adds nothing.
func (t *Table) addSampleColumns(masks []bitmask.Mask, weights []float64) {
	for w := 0; len(masks) > 0 && w < len(masks[0].Words()); w++ {
		c := newColumn(MaskColumn(w), Int, len(masks))
		c.ints = fillRows(len(masks), func(vals []int64, lo int) {
			for i := range vals {
				vals[i] = int64(masks[lo+i].Words()[w])
			}
		})
		t.addColumn(c)
	}
	if weights != nil {
		c := newColumn(WeightColumn, Float, len(weights))
		c.floats = fillRows(len(weights), func(vals []float64, lo int) { copy(vals, weights[lo:]) })
		t.addColumn(c)
	}
}

// RowMask returns the membership mask a sample row stores, at the width of
// its word columns; ok is false when the table has none.
func (t *Table) RowMask(row int) (m bitmask.Mask, ok bool) {
	var words []uint64
	for c := t.Column(MaskColumn(0)); c != nil; c = t.Column(MaskColumn(len(words))) {
		words = append(words, uint64(c.Int(row)))
	}
	return bitmask.FromWords(64*len(words), words), words != nil
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

// MustColumn returns the named column or panics.
func (t *Table) MustColumn(name string) *Column {
	c := t.Column(name)
	if c == nil {
		panic(fmt.Sprintf("engine: table %q has no column %q", t.Name, name))
	}
	return c
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

// RowValues returns the values of row i in schema order.
func (t *Table) RowValues(i int) []Value {
	vals := make([]Value, len(t.cols))
	for j, c := range t.cols {
		vals[j] = c.Value(i)
	}
	return vals
}

// ColumnNames returns the column names in schema order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
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
