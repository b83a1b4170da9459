package engine

import (
	"fmt"

	"dynsample/internal/bitmask"
)

// Renormalized join synopses (§5.2.2): instead of storing each sample table
// fully flattened ("join synopses"), the fact rows are stored with their
// foreign keys remapped into reduced dimension tables that contain only the
// referenced rows — and those reduced dimensions are shared by every sample
// table built from the same Renormalizer, exactly as the paper describes:
// "we combined the resulting small dimension tables from all the small group
// sampling join synopses to create a single smaller dimension table for each
// of the original dimension tables."

// Renormalizer builds renormalized sample databases over one base star
// schema. Construct it with every row set that will become a sample table so
// the shared reduced dimensions cover all of them.
type Renormalizer struct {
	db *Database
	// remap[d][oldRow] is the reduced row id in dimension d, or -1.
	remap       [][]int32
	reducedDims []*Table
}

// NewRenormalizer computes the shared reduced dimension tables covering the
// union of the given fact-row sets.
func NewRenormalizer(db *Database, rowSets ...[]int) *Renormalizer {
	r := &Renormalizer{db: db}
	r.remap = make([][]int32, len(db.Dims))
	r.reducedDims = make([]*Table, len(db.Dims))
	for d, dj := range db.Dims {
		used := make([]bool, dj.Table.NumRows())
		fk := db.Fact.MustColumn(dj.FK)
		for _, rows := range rowSets {
			for _, row := range rows {
				used[fk.Int(row)] = true
			}
		}
		remap := make([]int32, dj.Table.NumRows())
		var keep []int
		for old, u := range used {
			if u {
				remap[old] = int32(len(keep))
				keep = append(keep, old)
			} else {
				remap[old] = -1
			}
		}
		r.remap[d] = remap
		r.reducedDims[d] = subsetTable(dj.Table, dj.Table.Name, keep)
	}
	return r
}

// ReducedDims returns the shared reduced dimension tables.
func (r *Renormalizer) ReducedDims() []*Table { return r.reducedDims }

// Build materialises one sample as a renormalized star schema: a fact slice
// with remapped foreign keys joined to the shared reduced dimensions. The
// returned Database is a Source whose fact rows carry the given masks and
// weights, one per row, as Flatten's do.
func (r *Renormalizer) Build(name string, rows []int, masks []bitmask.Mask, weights []float64) (*Database, error) {
	// Foreign keys are remapped into the reduced dimensions on their way
	// into the new column: a sealed chunk is not rewritten.
	fkDim := make(map[string]int, len(r.db.Dims))
	for d, dj := range r.db.Dims {
		fkDim[dj.FK] = d
	}
	covered := true
	cols := make([]*Column, r.db.Fact.NumCols())
	for j, c := range r.db.Fact.Columns() {
		d, isFK := fkDim[c.Name]
		if !isFK {
			cols[j] = c.View().gather(rows)
			continue
		}
		cols[j] = newColumn(c.Name, Int, len(rows))
		cols[j].ints = gatherRows(&c.ints, rows, func(fks []int64) {
			for i, old := range fks {
				covered = covered && r.remap[d][old] >= 0
				fks[i] = int64(r.remap[d][old])
			}
		})
	}
	if !covered {
		return nil, fmt.Errorf("engine: row set for %q not covered by renormalizer", name)
	}
	fact := NewTable(name, cols...)
	fact.addSampleColumns(masks, weights)
	dims := make([]DimJoin, len(r.db.Dims))
	for d, dj := range r.db.Dims {
		dims[d] = DimJoin{Table: r.reducedDims[d], FK: dj.FK}
	}
	return NewDatabase(name, fact, dims...)
}

// subsetTable copies the given rows of a table (all physical columns,
// including FK columns).
func subsetTable(t *Table, name string, rows []int) *Table {
	cols := make([]*Column, t.NumCols())
	for j, c := range t.Columns() {
		cols[j] = c.View().gather(rows)
	}
	return NewTable(name, cols...)
}
