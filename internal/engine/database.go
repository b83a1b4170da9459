package engine

import (
	"fmt"
	"sort"
	"strings"

	"dynsample/internal/bitmask"
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

type binding struct {
	col *Column
	fk  *Column // nil for fact columns
	dim int     // index into Dims; -1 for fact columns
}

// NewDatabase assembles a star schema and validates it. FK columns are
// physical only: they do not appear among the view's logical columns. Nor do
// a sample fact table's reserved columns, which are bound for View.
func NewDatabase(name string, fact *Table, dims ...DimJoin) (*Database, error) {
	db := &Database{Name: name, Fact: fact, Dims: dims, bindings: make(map[string]binding)}
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
	for _, c := range fact.Columns() {
		if fkCols[c.Name] {
			continue
		}
		if err := db.bind(c.Name, binding{col: c, dim: -1}); err != nil {
			return nil, err
		}
	}
	for di, d := range dims {
		fk := fact.MustColumn(d.FK)
		for _, c := range d.Table.Columns() {
			if err := db.bind(c.Name, binding{col: c, fk: fk, dim: di}); err != nil {
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
	b, ok := db.bindings[name]
	if !ok {
		return 0, fmt.Errorf("engine: unknown column %q", name)
	}
	return b.col.Type, nil
}

// Accessor implements Source.
func (db *Database) Accessor(name string) (ColumnAccessor, error) {
	b, ok := db.bindings[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown column %q", name)
	}
	if b.fk == nil {
		return b.col, nil
	}
	if b.col.Type == String {
		return &fkCodeAccessor{fkAccessor{fk: b.fk, col: b.col}}, nil
	}
	return &fkAccessor{fk: b.fk, col: b.col}, nil
}

// fkAccessor reads a dimension column through a fact FK column.
type fkAccessor struct {
	fk  *Column
	col *Column
}

func (a *fkAccessor) Value(row int) Value   { return a.col.Value(int(a.fk.Int(row))) }
func (a *fkAccessor) Float(row int) float64 { return a.col.Float(int(a.fk.Int(row))) }
func (a *fkAccessor) Type() Type            { return a.col.Type }

// fkCodeAccessor adds dictionary-code access for string dimension columns.
type fkCodeAccessor struct{ fkAccessor }

func (a *fkCodeAccessor) Code(row int) int32          { return a.col.Code(int(a.fk.Int(row))) }
func (a *fkCodeAccessor) DictSize() int               { return a.col.DictSize() }
func (a *fkCodeAccessor) DictValue(code int32) string { return a.col.DictValue(code) }

// Flatten materialises the joined view for the given fact-row indices into a
// single flat table containing every view column. This is the "join synopsis"
// construction from [3] that the paper applies to sample tables (§5.2.2): each
// sample table is stored pre-joined so runtime queries scan it directly.
//
// masks and weights, when non-nil, hold one entry per emitted row and become
// the table's mask word and weight columns.
func (db *Database) Flatten(name string, rows []int, masks []bitmask.Mask, weights []float64) *Table {
	// Resolve the join once per dimension, then gather column-at-a-time.
	dimRows := make([][]int, len(db.Dims))
	cols := make([]*Column, len(db.colNames))
	for i, cn := range db.colNames {
		v, err := db.View(cn)
		if err != nil {
			panic(err)
		}
		at := rows
		if v.Dim >= 0 {
			if dimRows[v.Dim] == nil {
				dimRows[v.Dim] = make([]int, len(rows))
				for j, r := range rows {
					dimRows[v.Dim][j] = int(v.fk.at(r))
				}
			}
			at = dimRows[v.Dim]
		}
		cols[i] = v.gather(at)
	}
	out := NewTable(name, cols...)
	out.addSampleColumns(masks, weights)
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
