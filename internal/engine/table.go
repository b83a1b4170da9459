package engine

import (
	"fmt"

	"dynsample/internal/bitmask"
)

// Table is a named relation of typed columns. Sample tables additionally
// carry a per-row membership bitmask (the paper's extra bitmask field,
// §4.2.1) and a per-row weight used by weighted sampling strategies.
type Table struct {
	Name string

	cols   []*Column
	byName map[string]int
	rows   int

	// Masks, when non-nil, holds one small-group membership mask per row.
	Masks []bitmask.Mask
	// Weights, when non-nil, holds one inverse-sampling-rate weight per row.
	Weights []float64

	// owned holds the chunk numbers SetRow has copied for this version.
	owned map[int]bool
}

// NewTable returns an empty table with the given column definitions.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, byName: make(map[string]int, len(cols))}
	for _, c := range cols {
		t.addColumn(c)
	}
	return t
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

// AddColumn appends a column definition; its length must match the table.
func (t *Table) AddColumn(c *Column) { t.addColumn(c) }

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
	b := t.sideBytes()
	for _, c := range t.cols {
		if c.Type == String {
			b += int64(c.n) * 4
		} else {
			b += int64(c.n) * 8
		}
	}
	return b
}

// StoredBytes is what the table's data holds in memory: the chunks at the
// widths they were sealed at, their list entries, the open tails at their
// capacity, and the dictionaries, masks and weights as ApproxBytes counts
// them.
func (t *Table) StoredBytes() int64 {
	b := t.sideBytes()
	for _, c := range t.cols {
		b += c.ints.bytes() + c.floats.bytes() + c.codes.bytes()
	}
	return b
}

// sideBytes counts what a table holds besides its rows' values: dictionary
// strings, masks and weights.
func (t *Table) sideBytes() int64 {
	var b int64
	for _, c := range t.cols {
		b += c.dictBytes
	}
	if t.Masks != nil && t.rows > 0 {
		b += int64(t.rows) * int64(8*((t.Masks[0].Width()+63)/64))
	}
	if t.Weights != nil {
		b += int64(len(t.Weights)) * 8
	}
	return b
}
