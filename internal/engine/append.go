package engine

import "fmt"

// Live append support. The ingest subsystem extends a database while queries
// are being served from it, which the engine makes safe with copy-on-write
// structural sharing: an append never mutates storage visible to a published
// version. CloneForAppend copies a table's column headers, sharing every
// chunk, the chunk lists and the open tail, and every subsequent append lands
// at row indices at or beyond the old length — in the tail, or in a new one
// once the full tail has been sealed onto the end of the chunk list: slots
// no reader of the old version ever touches — so a single serial
// writer can grow the newest version while arbitrarily many readers scan
// older ones without locks or data races. Sealing replaces nothing: a version
// that was published with half a tail keeps reading that tail, and only
// versions published after the seal see the packed chunk. A version therefore
// costs its headers, not its rows: every sealed chunk has one copy however
// many versions are pinned.
//
// That holds for one writer lineage only. A second writer starting from an
// older version would fill the same tail slots the first already published,
// so every column keeps the number of rows written into its chunks beside
// them (Column.written) and an append from any version but the longest fails
// before it writes.
//
// Dictionary state is shared across versions on purpose: new strings get
// codes >= the old dictionary length, which only rows of the new version
// reference, and the code->string map (dictIx) is touched exclusively by the
// writer (the read path goes through dict/codes slices only).

// cloneForAppend returns a column copy sharing all row storage. Appends to
// the clone are invisible to the original.
func (c *Column) cloneForAppend() *Column {
	c.tailShared = true
	cc := *c
	return &cc
}

// ownList makes the column's chunk list this version's own, so that entries
// can be replaced without an older version seeing it.
func (c *Column) ownList() {
	c.ints.sealed = append([]chunk[int64](nil), c.ints.sealed...)
	c.floats.sealed = append([]chunk[float64](nil), c.floats.sealed...)
	c.codes.sealed = append([]chunk[int32](nil), c.codes.sealed...)
}

// ownChunk replaces chunk k by a copy this version may overwrite.
func (c *Column) ownChunk(k int) {
	switch c.Type {
	case Int:
		c.ints.own(k)
	case Float:
		c.floats.own(k)
	default:
		c.codes.own(k)
	}
}

// setValue overwrites row i. The chunk holding it must be this version's own
// (see Table.SetRow); overwriting a shared chunk would tear published
// versions.
func (c *Column) setValue(i int, v Value) {
	if v.T != c.Type {
		panic(fmt.Sprintf("engine: set %s value in %s column %q", v.T, c.Type, c.Name))
	}
	switch c.Type {
	case Int:
		c.ints.set(i, v.I)
	case Float:
		c.floats.set(i, v.F)
	default:
		c.codes.set(i, c.code(v.S))
	}
}

// CloneForAppend returns a new version of the table sharing all row storage
// with the receiver. Appending rows (AppendRow, or direct column pushes plus
// EndRow) and overwriting rows with SetRow are safe while readers scan the
// original: appended data lands only at indices beyond the original's length,
// and SetRow writes to copies. A sample row's weight is a column, so it is
// covered like the rest of the row. The clone and
// the original share dictionaries and the byName index; do not AddColumn to
// either afterwards, and keep all mutation on one goroutine. Only the newest
// version of a table may be appended to.
func (t *Table) CloneForAppend() *Table {
	nt := *t
	nt.cols = make([]*Column, len(t.cols))
	for i, c := range t.cols {
		nt.cols[i] = c.cloneForAppend()
	}
	nt.owned, nt.arrays = nil, new(columnArrays)
	return &nt
}

// SetRow overwrites row i with vals (schema order), copy-on-write: the first
// overwrite a version makes in a chunk copies that chunk of every column, as
// it is stored, so versions this one was cloned from keep their rows and
// every other chunk stays shared; a value outside a packed copy's span has it
// sealed again, wider. Dictionaries are shared too: replacement strings append
// new codes, never rewrite old entries. The version's unpacked columns are
// dropped: a join reads the written row from arrays built after it.
func (t *Table) SetRow(i int, vals ...Value) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("engine: row has %d values, table %q has %d columns", len(vals), t.Name, len(t.cols)))
	}
	if i < 0 || i >= t.rows {
		panic(fmt.Sprintf("engine: SetRow index %d out of range [0,%d)", i, t.rows))
	}
	if t.owned == nil {
		t.owned = make(map[int]bool)
		for _, c := range t.cols {
			c.ownList()
		}
	}
	if k := i >> chunkShift; !t.owned[k] {
		t.owned[k] = true
		for _, c := range t.cols {
			c.ownChunk(k)
		}
	}
	for j, v := range vals {
		t.cols[j].setValue(i, v)
	}
	t.arrays = new(columnArrays)
}

// Appender grows a star-schema database with streamed row appends. Each
// Append produces a new immutable *Database version built by copy-on-write
// over the previous one; older versions (including any pinned by in-flight
// queries or a background rebuild) keep answering from the row count they
// were published with.
//
// Rows are given in the joined view's column order (Database.Columns()).
// Dimension values are resolved against an index of existing dimension rows:
// a row whose dimension tuple already exists reuses that row's id as the
// foreign key, otherwise a new dimension row is appended. An Appender is a
// single-writer object: calls must be serialised by the caller.
type Appender struct {
	db *Database

	// factSrc maps each physical fact column to its input: a view position
	// for regular columns, or the dimension whose resolved row id it holds.
	factSrc []factInput
	// dimPos holds, per dimension, the view positions of its columns in
	// dimension-table schema order.
	dimPos [][]int
	// dimIndex maps, per dimension, an encoded dimension tuple to its row id.
	dimIndex []map[string]int

	keyBuf []byte
	valBuf []Value
	fkBuf  []int64
}

type factInput struct {
	viewPos int
	dim     int // -1 for regular columns
}

// NewAppender returns an appender over db, which must be the newest version
// of its tables: handing a database on from one appender to the next is fine,
// a second appender beside a live one is not. Building it scans every
// dimension table once to index existing dimension tuples.
func NewAppender(db *Database) (*Appender, error) {
	if err := db.newest(); err != nil {
		return nil, err
	}
	a := &Appender{db: db}
	pos := make(map[string]int, len(db.colNames))
	for i, n := range db.colNames {
		pos[n] = i
	}
	fkDim := make(map[string]int, len(db.Dims))
	for di, d := range db.Dims {
		for dj, other := range db.Dims {
			if dj != di && other.Table == d.Table {
				return nil, fmt.Errorf("engine: appender does not support dimensions sharing a table (%q)", d.Table.Name)
			}
		}
		fkDim[d.FK] = di
	}
	for _, c := range db.Fact.Columns() {
		if di, ok := fkDim[c.Name]; ok {
			a.factSrc = append(a.factSrc, factInput{dim: di})
			continue
		}
		p, ok := pos[c.Name]
		if !ok {
			return nil, fmt.Errorf("engine: fact column %q missing from view", c.Name)
		}
		a.factSrc = append(a.factSrc, factInput{viewPos: p, dim: -1})
	}
	for _, d := range db.Dims {
		ps := make([]int, 0, d.Table.NumCols())
		for _, c := range d.Table.Columns() {
			p, ok := pos[c.Name]
			if !ok {
				return nil, fmt.Errorf("engine: dimension column %q missing from view", c.Name)
			}
			ps = append(ps, p)
		}
		a.dimPos = append(a.dimPos, ps)
		a.dimIndex = append(a.dimIndex, indexDimRows(d.Table))
	}
	a.fkBuf = make([]int64, len(db.Dims))
	return a, nil
}

// indexDimRows maps each dimension row's encoded value tuple to its row id.
// Duplicate tuples keep the first id, so appends reuse the earliest match.
func indexDimRows(t *Table) map[string]int {
	ix := make(map[string]int, t.NumRows())
	vals := make([]Value, t.NumCols())
	var buf []byte
	for r := 0; r < t.NumRows(); r++ {
		for j, c := range t.Columns() {
			vals[j] = c.Value(r)
		}
		buf = AppendKey(buf[:0], vals)
		if _, dup := ix[string(buf)]; !dup {
			ix[string(buf)] = r
		}
	}
	return ix
}

// DB returns the newest database version.
func (a *Appender) DB() *Database { return a.db }

// newest reports, as an error, a table of db that a writer has grown past
// the version db holds.
func (db *Database) newest() error {
	tables := []*Table{db.Fact}
	for _, d := range db.Dims {
		tables = append(tables, d.Table)
	}
	for _, t := range tables {
		for _, c := range t.cols {
			if c.stale() {
				return fmt.Errorf("engine: database %q holds table %q at %d rows but %d are written: %s",
					db.Name, t.Name, c.n, c.written, lineageRule)
			}
		}
	}
	return nil
}

// Validate checks that every row matches the view schema (arity and value
// types) without appending anything. The ingest pipeline calls it before
// acknowledging a batch to its write-ahead log, so a record that reaches
// disk is guaranteed to apply cleanly on replay.
func (a *Appender) Validate(rows [][]Value) error {
	for ri, row := range rows {
		if len(row) != len(a.db.colNames) {
			return fmt.Errorf("engine: append row %d has %d values, view has %d columns", ri, len(row), len(a.db.colNames))
		}
		for i, v := range row {
			want, _ := a.db.ColumnType(a.db.colNames[i]) // a view column: bound
			if v.T != want {
				return fmt.Errorf("engine: append row %d column %q: got %s, want %s", ri, a.db.colNames[i], v.T, want)
			}
		}
	}
	return nil
}

// Append validates and appends rows (view column order) and returns the new
// database version. The batch is atomic: on any validation error nothing is
// appended. The returned database shares all pre-existing row storage with
// prior versions. An appender whose database another writer has since grown
// appends nothing and returns an error.
func (a *Appender) Append(rows [][]Value) (*Database, error) {
	if len(rows) == 0 {
		return a.db, nil
	}
	if err := a.Validate(rows); err != nil {
		return nil, err
	}
	if err := a.db.newest(); err != nil {
		return nil, err
	}

	newFact := a.db.Fact.CloneForAppend()
	dimTables := make([]*Table, len(a.db.Dims))
	cloned := make([]bool, len(a.db.Dims))
	for i, d := range a.db.Dims {
		dimTables[i] = d.Table
	}
	for _, row := range rows {
		for di := range a.db.Dims {
			ps := a.dimPos[di]
			a.valBuf = a.valBuf[:0]
			for _, p := range ps {
				a.valBuf = append(a.valBuf, row[p])
			}
			a.keyBuf = AppendKey(a.keyBuf[:0], a.valBuf)
			id, ok := a.dimIndex[di][string(a.keyBuf)]
			if !ok {
				if !cloned[di] {
					dimTables[di] = dimTables[di].CloneForAppend()
					cloned[di] = true
				}
				id = dimTables[di].NumRows()
				dimTables[di].AppendRow(a.valBuf...)
				a.dimIndex[di][string(a.keyBuf)] = id
			}
			a.fkBuf[di] = int64(id)
		}
		for ci, src := range a.factSrc {
			col := newFact.cols[ci]
			if src.dim >= 0 {
				col.AppendInt(a.fkBuf[src.dim])
			} else {
				col.Append(row[src.viewPos])
			}
		}
		newFact.rows++
	}

	dims := make([]DimJoin, len(a.db.Dims))
	for i, d := range a.db.Dims {
		dims[i] = DimJoin{Table: dimTables[i], FK: d.FK}
	}
	a.db = a.db.Rejoin(newFact, dims...)
	return a.db, nil
}
