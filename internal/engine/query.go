package engine

import (
	"fmt"
	"strings"
)

// Source is anything the executor can scan: the joined base view (*Database)
// or a flat (sample) table (*Table). A sample source's mask words and weights
// are columns of it (MaskColumn, WeightColumn).
type Source interface {
	NumRows() int
	Accessor(col string) (ColumnAccessor, error)
	// View returns the typed window onto a column that the scan kernel
	// reads in place.
	View(col string) (ColumnView, error)
}

// ColumnAccessor provides random access to one column of a Source.
type ColumnAccessor interface {
	Value(row int) Value
	Float(row int) float64
}

// CodeAccessor is the fast path for dictionary-encoded (string) columns:
// rows are identified by their int32 dictionary code, which turns hot-loop
// map-of-string lookups into array indexing. Accessors over string columns
// (direct or through a foreign key) implement it.
type CodeAccessor interface {
	ColumnAccessor
	// Code returns the row's dictionary code.
	Code(row int) int32
	// DictSize returns the dictionary size (codes are in [0, DictSize)).
	DictSize() int
	// DictValue maps a code back to its string.
	DictValue(code int32) string
}

// Accessor implements Source for flat tables.
func (t *Table) Accessor(col string) (ColumnAccessor, error) {
	c := t.Column(col)
	if c == nil {
		return nil, fmt.Errorf("engine: table %q has no column %q", t.Name, col)
	}
	return c, nil
}

// View implements Source for flat tables.
func (t *Table) View(col string) (ColumnView, error) {
	c := t.Column(col)
	if c == nil {
		return ColumnView{}, fmt.Errorf("engine: table %q has no column %q", t.Name, col)
	}
	return c.View(), nil
}

// AggKind identifies an aggregation function. Following the paper, the
// engine computes COUNT and SUM; AVG is derived by the middleware layer.
type AggKind uint8

// Supported aggregates.
const (
	Count AggKind = iota
	Sum
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// Aggregate is one aggregation expression in a query's SELECT list.
type Aggregate struct {
	Kind AggKind
	Col  string // aggregated column; empty for COUNT(*)
}

// String renders the aggregate as SQL.
func (a Aggregate) String() string {
	if a.Kind == Count {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Col)
}

// Query is a group-by aggregation query over a Source: the class of queries
// the paper targets (§4): single fact table or star schema, conjunctive
// selection predicates, group-by columns, COUNT/SUM aggregates.
type Query struct {
	GroupBy []string
	Aggs    []Aggregate
	Where   []Predicate // implicit conjunction
}

// Validate checks that the query references only columns known to db and has
// at least one aggregate.
func (q *Query) Validate(db *Database) error {
	if len(q.Aggs) == 0 {
		return fmt.Errorf("engine: query has no aggregates")
	}
	for _, g := range q.GroupBy {
		if !db.HasColumn(g) {
			return fmt.Errorf("engine: unknown group-by column %q", g)
		}
	}
	for _, a := range q.Aggs {
		if a.Kind == Sum && !db.HasColumn(a.Col) {
			return fmt.Errorf("engine: unknown aggregate column %q", a.Col)
		}
	}
	for _, p := range q.Where {
		if !db.HasColumn(p.Column()) {
			return fmt.Errorf("engine: unknown predicate column %q", p.Column())
		}
	}
	return nil
}

// String renders the query as SQL against the logical view "T".
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, g := range q.GroupBy {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(g)
	}
	for i, a := range q.Aggs {
		if i > 0 || len(q.GroupBy) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString(" FROM T")
	if len(q.Where) > 0 {
		sb.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(q.GroupBy, ", "))
	}
	return sb.String()
}
