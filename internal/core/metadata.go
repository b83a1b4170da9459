package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dynsample/internal/engine"
)

// ColumnMeta describes one small-group column: its table index (the bit
// position in membership masks), its set of common values L(C), and how many
// base rows fall outside L(C) (the rows stored in its small group table).
type ColumnMeta struct {
	Column string
	Index  int
	// Common is L(C): the minimum set of values whose frequencies sum to at
	// least N(1−t). Rows with values outside this set belong to the column's
	// small group table.
	Common map[engine.Value]struct{}
	// Exact holds the values stored at a 100% rate. Nil means the default
	// two-level hierarchy, where every value outside Common is exact; under
	// the multi-level extension (§4.2.3) medium-band values are in the table
	// but subsampled, so they appear in neither Common nor Exact.
	Exact map[engine.Value]struct{}
	// RareRows is the number of base rows outside L(C); always ≤ N·t under
	// the default two-level hierarchy.
	RareRows int64
	// Distinct is the column's distinct-value count observed in pass 1.
	Distinct int
}

// PairMeta describes a column-pair small group table (the §4.2.3 variation
// "generate small group tables based on selected group-by queries over pairs
// of columns"): it stores the rows whose *combination* of values is rare
// even though each value is individually common.
type PairMeta struct {
	Cols  [2]string
	Index int
	// Rare holds the encoded (v1,v2) tuples stored (completely) in the pair
	// table. Tuples involving a value that is rare in either single column
	// are excluded — those rows already live in the single-column tables.
	Rare map[engine.GroupKey]struct{}
	// RareRows is the number of base rows stored.
	RareRows int64
}

// Metadata is the catalog the pre-processing phase produces (§3.1): it "lists
// the members of S and assigns a numeric index to each one", and it records
// each column's common-value set so the runtime phase can decide which groups
// are answered exactly.
type Metadata struct {
	columns []ColumnMeta
	pairs   []PairMeta
	byName  map[string]int
	// BaseRows is N, the number of rows in the database view.
	BaseRows int64
}

// NewMetadata builds the catalog from per-column descriptions. Indices are
// assigned in the given order, 0..|S|−1.
func NewMetadata(baseRows int64, cols []ColumnMeta) *Metadata {
	m := &Metadata{byName: make(map[string]int, len(cols)), BaseRows: baseRows}
	for i := range cols {
		cols[i].Index = i
		m.byName[cols[i].Column] = i
		m.columns = append(m.columns, cols[i])
	}
	return m
}

// setEntryBytes is what one entry of a value set holds: its slot in the
// map, with the room growing by doubling leaves. Measured, go1.24: 80 to 90.
const setEntryBytes = 80

// heldBytes is what the catalog's value sets hold in memory: an entry each,
// and the bytes of every string value or pair key.
func (m *Metadata) heldBytes() int64 {
	var b int64
	add := func(set map[engine.Value]struct{}) {
		for v := range set {
			b += setEntryBytes + int64(len(v.S))
		}
	}
	for _, cm := range m.columns {
		add(cm.Common)
		add(cm.Exact)
	}
	for _, pm := range m.pairs {
		for k := range pm.Rare {
			b += setEntryBytes + int64(len(k))
		}
	}
	return b
}

// AddPair registers a column-pair table, assigning it the next index after
// all single-column tables. Must be called before the bitmask width is used.
func (m *Metadata) AddPair(p PairMeta) int {
	p.Index = len(m.columns) + len(m.pairs)
	m.pairs = append(m.pairs, p)
	return p.Index
}

// Pairs returns the pair-table entries in index order.
func (m *Metadata) Pairs() []PairMeta { return m.pairs }

// Width returns |S|, the number of small group tables (and the bitmask
// width), counting both single-column and pair tables.
func (m *Metadata) Width() int { return len(m.columns) + len(m.pairs) }

// Columns returns the catalog entries in index order.
func (m *Metadata) Columns() []ColumnMeta { return m.columns }

// Index returns the small-group-table index for a column, if it has one.
func (m *Metadata) Index(col string) (int, bool) {
	i, ok := m.byName[col]
	return i, ok
}

// Column returns the catalog entry for a column, if present.
func (m *Metadata) Column(col string) (ColumnMeta, bool) {
	if i, ok := m.byName[col]; ok {
		return m.columns[i], true
	}
	return ColumnMeta{}, false
}

// IsCommon reports whether v is in L(col). Columns outside S report every
// value as common (they have no small group table).
func (m *Metadata) IsCommon(col string, v engine.Value) bool {
	i, ok := m.byName[col]
	if !ok {
		return true
	}
	_, common := m.columns[i].Common[v]
	return common
}

// IsExactValue reports whether rows with value v in col are stored at a 100%
// rate in col's small group table. A nil ColumnMeta.Exact means the default
// two-level hierarchy: every non-common value is exact.
func (m *Metadata) IsExactValue(col string, v engine.Value) bool {
	i, ok := m.byName[col]
	if !ok {
		return false
	}
	cm := m.columns[i]
	if cm.Exact == nil {
		_, common := cm.Common[v]
		return !common
	}
	_, exact := cm.Exact[v]
	return exact
}

// TableRef identifies one small group table chosen for a query.
type TableRef struct {
	Index    int
	Columns  []string
	RareRows int64
}

// RelevantTables returns the tables applicable to the query's grouping
// columns, in index order — the runtime sample selection rule of §4.2.2:
// "for each column C ∈ S in the query's group-by list, the query is executed
// against that column's small group table". Pair tables apply when both of
// their columns are grouped.
func (m *Metadata) RelevantTables(groupBy []string) []TableRef {
	grouped := make(map[string]bool, len(groupBy))
	for _, g := range groupBy {
		grouped[g] = true
	}
	var out []TableRef
	for _, g := range groupBy {
		if i, ok := m.byName[g]; ok {
			cm := m.columns[i]
			out = append(out, TableRef{Index: cm.Index, Columns: []string{cm.Column}, RareRows: cm.RareRows})
		}
	}
	for _, p := range m.pairs {
		if grouped[p.Cols[0]] && grouped[p.Cols[1]] {
			out = append(out, TableRef{Index: p.Index, Columns: p.Cols[:], RareRows: p.RareRows})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// holds reports whether small group table ix's domain holds a group whose
// values of the table's columns are v0 (and, for a pair table, v1) — the
// rows scan 2 and online maintenance put in the table, by the classes they
// put them in by: a single-column table's domain is every value outside
// L(C), unseen values included; a pair table's, as pairTester.test decides,
// the rare tuples of two individually common values. A group's rows share
// these values, so each row of it lies in the domain or none does.
func (m *Metadata) holds(ix int, v0, v1 engine.Value) bool {
	if ix < len(m.columns) {
		_, common := m.columns[ix].Common[v0]
		return !common
	}
	p := m.pairs[ix-len(m.columns)]
	_, rare := p.Rare[engine.EncodeKey([]engine.Value{v0, v1})]
	return rare && m.IsCommon(p.Cols[0], v0) && m.IsCommon(p.Cols[1], v1)
}

// owners is the owner rule of one rewritten query: the small group tables it
// reads, in step order, each with its columns' positions in the query's group
// key. Every table of a query is on its grouping columns (RelevantTables), so
// which tables hold a group is a test on the group's key, not on its rows.
type owners struct {
	meta   *Metadata
	tables []ownedTable
}

type ownedTable struct {
	index int
	pos   [2]int // the columns' positions in the group key; a single column's twice
}

// newOwners is the owner rule of the tables refs, in step order, for a query
// grouped by groupBy. Each table's columns must be among groupBy.
func newOwners(meta *Metadata, groupBy []string, refs []TableRef) *owners {
	o := &owners{meta: meta, tables: make([]ownedTable, len(refs))}
	for j, ref := range refs {
		first, last := ref.Columns[0], ref.Columns[len(ref.Columns)-1]
		o.tables[j] = ownedTable{index: ref.Index, pos: [2]int{slices.Index(groupBy, first), slices.Index(groupBy, last)}}
	}
	return o
}

// owner returns the step that answers the group with the given key — the
// first table, in step order, whose domain holds it, or len(tables), the
// overall sample, when none does — and whether that table stores the group
// at a 100% rate, which makes the answer exact (§4.2.2: "answers for groups
// that result from querying small group tables are marked as being exact").
// Every other step's rows of the group are double counts, and the step
// gives the group up. A medium band of the multi-level extension stores its
// values subsampled, so a group it owns is estimated, whatever a later table
// holds; a pair table stores its rows completely.
func (o *owners) owner(key []engine.Value) (step int, exact bool) {
	for j, t := range o.tables {
		if v0 := key[t.pos[0]]; o.meta.holds(t.index, v0, key[t.pos[1]]) {
			return j, t.index >= len(o.meta.columns) || o.meta.IsExactValue(o.meta.columns[t.index].Column, v0)
		}
	}
	return len(o.tables), false
}

// String renders the catalog as the metadata table of §4.2.1.
func (m *Metadata) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "metadata: N=%d, |S|=%d\n", m.BaseRows, m.Width())
	for _, c := range m.columns {
		fmt.Fprintf(&sb, "  [%d] %-24s distinct=%-6d common=%-6d rareRows=%d\n",
			c.Index, c.Column, c.Distinct, len(c.Common), c.RareRows)
	}
	for _, p := range m.pairs {
		fmt.Fprintf(&sb, "  [%d] (%s,%s)%-12s rareTuples=%-6d rareRows=%d\n",
			p.Index, p.Cols[0], p.Cols[1], "", len(p.Rare), p.RareRows)
	}
	return sb.String()
}
