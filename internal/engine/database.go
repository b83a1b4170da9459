package engine

import (
	"fmt"
	"sort"
	"strings"
)

// DimJoin links a fact-table foreign-key column to a dimension table whose
// primary key is the row index (0..NumRows-1). This models the star schemas
// with foreign-key joins that the paper restricts itself to (§4): "foreign-key
// joins represent the majority of joins in actual data analysis applications".
type DimJoin struct {
	Table *Table
	FK    string // name of the fact column holding row ids into Table
}

// Database is a single fact table optionally joined to dimension tables.
// Following §4.2.1, "the database" that sampling operates over is the view
// resulting from joining the fact table to the dimension tables; Database
// exposes that view's columns uniformly whether they live in the fact table
// or a dimension.
//
// Column names must be unique across the whole schema (the generators
// qualify them, e.g. "p_brand"), so queries reference columns by bare name.
type Database struct {
	Name string
	Fact *Table
	Dims []DimJoin

	bindings map[string]binding
	colNames []string // all view columns, schema order
}

// binding locates a view column by position, so that later versions of the
// tables (Rejoin) share the bindings of the first.
type binding struct {
	col int // position in the fact table, or in dimension dim's table
	dim int // index into Dims; -1 for fact columns
	fk  int // a dimension column's foreign key: its position in the fact table
}

// NewDatabase assembles a star schema and validates it. FK columns are
// physical only: they do not appear among the view's logical columns. Nor do
// a sample fact table's reserved columns, which are bound for View.
func NewDatabase(name string, fact *Table, dims ...DimJoin) (*Database, error) {
	n := fact.NumCols()
	for _, d := range dims {
		n += d.Table.NumCols()
	}
	db := &Database{Name: name, Fact: fact, Dims: dims, bindings: make(map[string]binding, n)}
	fkCols := make(map[string]bool, len(dims))
	for _, d := range dims {
		fk := fact.Column(d.FK)
		if fk == nil {
			return nil, fmt.Errorf("engine: fact table %q has no FK column %q", fact.Name, d.FK)
		}
		if fk.Type != Int {
			return nil, fmt.Errorf("engine: FK column %q must be INT", d.FK)
		}
		fkCols[d.FK] = true
	}
	for j, c := range fact.Columns() {
		if fkCols[c.Name] {
			continue
		}
		if err := db.bind(c.Name, binding{col: j, dim: -1}); err != nil {
			return nil, err
		}
	}
	for di, d := range dims {
		for j, c := range d.Table.Columns() {
			if err := db.bind(c.Name, binding{col: j, dim: di, fk: fact.byName[d.FK]}); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// MustNewDatabase is NewDatabase that panics on error, for tests and generators.
func MustNewDatabase(name string, fact *Table, dims ...DimJoin) *Database {
	db, err := NewDatabase(name, fact, dims...)
	if err != nil {
		panic(err)
	}
	return db
}

// Rejoin returns the database over fact and dims, later versions of db's
// own fact and dimension tables (CloneForAppend, an Appender's appends):
// the same columns in the same order. It shares db's bindings, so a new
// version costs no binding of a name.
func (db *Database) Rejoin(fact *Table, dims ...DimJoin) *Database {
	return &Database{Name: db.Name, Fact: fact, Dims: dims, bindings: db.bindings, colNames: db.colNames}
}

func (db *Database) bind(name string, b binding) error {
	if _, dup := db.bindings[name]; dup {
		return fmt.Errorf("engine: duplicate column name %q across star schema", name)
	}
	db.bindings[name] = b
	if !strings.HasPrefix(name, ReservedPrefix) {
		db.colNames = append(db.colNames, name)
	}
	return nil
}

// column returns the view column name is bound to and, for a dimension
// column, the fact table's foreign key column.
func (db *Database) column(name string) (col, fk *Column, b binding, err error) {
	b, ok := db.bindings[name]
	switch {
	case !ok:
		return nil, nil, b, fmt.Errorf("engine: unknown column %q", name)
	case b.dim < 0:
		return db.Fact.cols[b.col], nil, b, nil
	}
	return db.Dims[b.dim].Table.cols[b.col], db.Fact.cols[b.fk], b, nil
}

// NumRows returns the number of rows in the joined view (= fact rows).
func (db *Database) NumRows() int { return db.Fact.NumRows() }

// Columns returns the names of all view columns in schema order.
func (db *Database) Columns() []string {
	out := make([]string, len(db.colNames))
	copy(out, db.colNames)
	return out
}

// HasColumn reports whether the view exposes the named column.
func (db *Database) HasColumn(name string) bool {
	_, ok := db.bindings[name]
	return ok
}

// ColumnType returns the type of a view column.
func (db *Database) ColumnType(name string) (Type, error) {
	col, _, _, err := db.column(name)
	if err != nil {
		return 0, err
	}
	return col.Type, nil
}

// Accessor implements Source.
func (db *Database) Accessor(name string) (ColumnAccessor, error) {
	col, fk, b, err := db.column(name)
	switch {
	case err != nil:
		return nil, err
	case fk == nil:
		return col, nil
	}
	a := fkAccessor{fk: fk, col: col}
	switch vals := db.Dims[b.dim].Table.unpacked(b.col).(type) {
	case []int64:
		a.ints = vals
	case []float64:
		a.floats = vals
	case []int32:
		a.codes = vals
	}
	return &a, nil
}

// fkAccessor reads a dimension column through a fact FK column, from the
// column's unpacked rows (Table.unpacked): ints, floats or codes by its type.
type fkAccessor struct {
	fk, col *Column
	ints    []int64
	floats  []float64
	codes   []int32
}

func (a *fkAccessor) Value(row int) Value {
	switch r := a.fk.Int(row); a.col.Type {
	case Int:
		return IntVal(a.ints[r])
	case Float:
		return FloatVal(a.floats[r])
	default:
		return StringVal(a.col.dict[a.codes[r]])
	}
}

func (a *fkAccessor) Float(row int) float64 { return a.Value(row).Float() }

// FactSlice materialises the given fact rows as a fact slice: the fact
// table's own columns, foreign keys included, gathered for rows, then one
// weight per row (nil adds none), joined to db's own dimension tables. It
// answers every view column as a flat table of the same rows does (Flat) but
// stores no dimension column, so a sample row costs its fact values, not the
// width of the star. Rejoining the slice to a later version
// of the dimension tables (Rejoin) keeps its answers: appends only add
// dimension rows.
func (db *Database) FactSlice(name string, rows []int, weights []float64) *Database {
	cols := make([]*Column, db.Fact.NumCols())
	for j, c := range db.Fact.Columns() {
		cols[j] = c.View().gather(rows)
	}
	fact := NewTable(name, cols...)
	fact.addWeights(weights)
	return MustNewDatabase(name, fact, db.Dims...)
}

// Flat materialises every row of the joined view as one flat table named
// name: the view's columns, then the fact table's reserved (weight) columns.
// This is the "join synopsis" of [3] that the paper stores each sample table
// as (§5.2.2); here it serves readers that want a sample's rows as one table.
func (db *Database) Flat(name string) *Table {
	all := make([]int, db.NumRows())
	for i := range all {
		all[i] = i
	}
	// Resolve the join once per dimension, then gather column-at-a-time.
	dimRows := make([][]int, len(db.Dims))
	out := newTable(name, len(db.colNames))
	for _, cn := range db.colNames {
		v, err := db.View(cn)
		if err != nil {
			panic(err)
		}
		at := all
		if v.Dim >= 0 {
			if dimRows[v.Dim] == nil {
				dimRows[v.Dim] = make([]int, len(all))
				for j := range all {
					dimRows[v.Dim][j] = int(v.fk.at(j))
				}
			}
			at = dimRows[v.Dim]
		}
		out.addColumn(v.gather(at))
	}
	for _, c := range db.Fact.Columns() {
		if strings.HasPrefix(c.Name, ReservedPrefix) {
			out.addColumn(c.View().gather(all))
		}
	}
	return out
}

// TotalBytes is the logical size of the base data (fact + dimensions): see
// Table.ApproxBytes.
func (db *Database) TotalBytes() int64 {
	b := db.Fact.ApproxBytes()
	for _, d := range db.Dims {
		b += d.Table.ApproxBytes()
	}
	return b
}

// StoredBytes is what the base data holds in memory: see Table.StoredBytes.
func (db *Database) StoredBytes() int64 {
	b := db.Fact.StoredBytes()
	for _, d := range db.Dims {
		b += d.Table.StoredBytes()
	}
	return b
}

// bindingBytes is what one column of a joined view holds beside the column
// itself: its binding's map entry and its name's slot in the column list,
// each with the room growing by doubling leaves, and its share of the
// Database. Measured, go1.24: 117 at 34 columns.
const bindingBytes = 120

// ViewBytes is what the joined view holds beside its tables: its column
// bindings. A fact slice holds its fact table and these; its dimension
// tables are the base's.
func (db *Database) ViewBytes() int64 { return int64(len(db.bindings)) * bindingBytes }

// DistinctValues returns a view column's distinct values with exact counts,
// most frequent first (ties broken by value order for determinism).
func (db *Database) DistinctValues(name string) ([]ValueCount, error) {
	fs, err := db.ColumnFrequencies([]string{name}, 0, 0)
	if err != nil {
		return nil, err
	}
	out := fs[0].Counts()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value.Less(out[j].Value)
	})
	return out, nil
}

// ValueCount pairs a column value with its number of occurrences.
type ValueCount struct {
	Value Value
	Count int64
}
