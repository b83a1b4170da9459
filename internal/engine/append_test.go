package engine

import (
	"fmt"
	"strings"
	"testing"
)

func appendTestDB(t *testing.T) *Database {
	t.Helper()
	region := NewColumn("region", String)
	pop := NewColumn("population", Int)
	for _, r := range []struct {
		name string
		pop  int64
	}{{"east", 100}, {"west", 200}} {
		region.AppendString(r.name)
		pop.AppendInt(r.pop)
	}
	dim := NewTable("geo", region, pop)

	fk := NewColumn("geo_fk", Int)
	amount := NewColumn("amount", Float)
	tag := NewColumn("tag", String)
	for i := 0; i < 4; i++ {
		fk.AppendInt(int64(i % 2))
		amount.AppendFloat(float64(i))
		tag.AppendString("t0")
	}
	fact := NewTable("fact", fk, amount, tag)
	return MustNewDatabase("DB", fact, DimJoin{Table: dim, FK: "geo_fk"})
}

func viewRow(db *Database, r int) []Value {
	cols := db.Columns()
	out := make([]Value, len(cols))
	for i, cn := range cols {
		acc, err := db.Accessor(cn)
		if err != nil {
			panic(err)
		}
		out[i] = acc.Value(r)
	}
	return out
}

func TestAppenderReusesAndCreatesDimRows(t *testing.T) {
	db := appendTestDB(t)
	app, err := NewAppender(db)
	if err != nil {
		t.Fatal(err)
	}
	// Row 1: existing dim tuple (east,100); row 2: brand-new dim tuple.
	rows := [][]Value{
		{FloatVal(9.5), StringVal("t1"), StringVal("east"), IntVal(100)},
		{FloatVal(2.5), StringVal("t0"), StringVal("north"), IntVal(300)},
	}
	// The view order is amount, tag, region, population.
	want := []string{"amount", "tag", "region", "population"}
	got := db.Columns()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("view columns = %v, want %v", got, want)
		}
	}
	ndb, err := app.Append(rows)
	if err != nil {
		t.Fatal(err)
	}
	if ndb.NumRows() != 6 {
		t.Fatalf("new version has %d rows, want 6", ndb.NumRows())
	}
	if db.NumRows() != 4 {
		t.Fatalf("old version mutated: %d rows, want 4", db.NumRows())
	}
	// Existing tuple reused: no new dim row for east.
	if n := ndb.Dims[0].Table.NumRows(); n != 3 {
		t.Fatalf("dim table has %d rows, want 3 (east/west/north)", n)
	}
	for i, wantRow := range rows {
		gotRow := viewRow(ndb, 4+i)
		for j := range wantRow {
			if gotRow[j] != wantRow[j] {
				t.Fatalf("appended row %d = %v, want %v", i, gotRow, wantRow)
			}
		}
	}
	// Old rows unchanged in the new version.
	for r := 0; r < 4; r++ {
		if viewRow(ndb, r)[0].F != float64(r) {
			t.Fatalf("old row %d changed in new version", r)
		}
	}
}

func TestAppenderValidatesAtomically(t *testing.T) {
	db := appendTestDB(t)
	app, err := NewAppender(db)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Value{
		{FloatVal(1), StringVal("t1"), StringVal("east"), IntVal(100)},
		{FloatVal(1), StringVal("t1"), IntVal(7), IntVal(100)}, // wrong type for region
	}
	if _, err := app.Append(bad); err == nil {
		t.Fatal("want type error")
	}
	if app.DB().NumRows() != 4 {
		t.Fatalf("failed batch mutated the database: %d rows", app.DB().NumRows())
	}
	short := [][]Value{{FloatVal(1)}}
	if _, err := app.Append(short); err == nil {
		t.Fatal("want width error")
	}
}

func TestCloneForAppendSharesPrefix(t *testing.T) {
	db := appendTestDB(t)
	fact := db.Fact
	clone := fact.CloneForAppend()
	clone.Column("amount").AppendFloat(42)
	clone.Column("geo_fk").AppendInt(0)
	clone.Column("tag").AppendString("fresh")
	clone.EndRow()
	if fact.NumRows() != 4 || clone.NumRows() != 5 {
		t.Fatalf("rows: orig %d clone %d, want 4/5", fact.NumRows(), clone.NumRows())
	}
	// New dictionary entry is invisible to the original column header.
	if len(fact.Column("tag").dict) != 1 {
		t.Fatalf("original dict grew: %d", len(fact.Column("tag").dict))
	}
	if len(clone.Column("tag").dict) != 2 {
		t.Fatalf("clone dict = %d, want 2", len(clone.Column("tag").dict))
	}
}

func TestSetRowCopiesOnWrite(t *testing.T) {
	db := appendTestDB(t)
	fact := db.Fact
	cp := fact.CloneForAppend()
	cp.SetRow(0, IntVal(1), FloatVal(99), StringVal("replaced"))
	if fact.Column("amount").Float(0) != 0 {
		t.Fatal("SetRow leaked into the original")
	}
	if cp.Column("amount").Float(0) != 99 {
		t.Fatal("SetRow did not apply")
	}
	if cp.Column("tag").Value(0).S != "replaced" {
		t.Fatal("string overwrite did not apply")
	}
	// A version cloned from the overwritten one copies again before it writes.
	cp2 := cp.CloneForAppend()
	cp2.SetRow(0, IntVal(0), FloatVal(7), StringVal("t0"))
	if cp.Column("amount").Float(0) != 99 || cp2.Column("amount").Float(0) != 7 {
		t.Fatal("a second version's SetRow wrote into the first's chunk")
	}
}

// chunkedTestDB is a flat database of n rows: an int, a float and a string
// column whose values are functions of the row number.
func chunkedTestDB(n int) *Database {
	id, x, s := NewColumn("id", Int), NewColumn("x", Float), NewColumn("s", String)
	t := NewTable("fact", id, x, s)
	for i := 0; i < n; i++ {
		t.AppendRow(chunkedTestRow(i)...)
	}
	return MustNewDatabase("DB", t)
}

// chunkAddr is where sealed chunk ch of the column keeps its first row: two
// versions share the chunk when it is the same address.
func chunkAddr(c *Column, ch int) any {
	switch c.Type {
	case Int:
		return firstRow(&c.ints.sealed[ch])
	case Float:
		return firstRow(&c.floats.sealed[ch])
	default:
		return firstRow(&c.codes.sealed[ch])
	}
}

func firstRow[T stored](c *chunk[T]) any {
	if c.width == 0 {
		return &c.wide[0]
	}
	return &c.b[0]
}

func chunkedTestRow(i int) []Value {
	return []Value{IntVal(int64(i)), FloatVal(float64(i) / 4), StringVal(fmt.Sprint("s", i%7))}
}

// TestVersionsShareSealedChunks: however many versions an appender and SetRow
// make of a table, a sealed chunk has one backing array; a version owns only
// the chunk list, the open tail's rows past the version before it, and the
// chunks it overwrote.
func TestVersionsShareSealedChunks(t *testing.T) {
	const base, batch, batches = 2*chunkRows + 100, 300, 12
	app, err := NewAppender(chunkedTestDB(base))
	if err != nil {
		t.Fatal(err)
	}
	versions := []*Database{app.DB()}
	next := base
	for b := 0; b < batches; b++ {
		rows := make([][]Value, batch)
		for i := range rows {
			rows[i] = chunkedTestRow(next)
			next++
		}
		db, err := app.Append(rows)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, db)
	}
	for k := 0; k+1 < len(versions); k++ {
		old, new := versions[k].Fact, versions[k+1].Fact
		for ci, c := range old.cols {
			nc := new.cols[ci]
			for ch := 0; ch < old.NumRows()/chunkRows; ch++ { // the sealed chunks of version k
				if chunkAddr(c, ch) != chunkAddr(nc, ch) {
					t.Fatalf("version %d -> %d: column %q chunk %d was copied", k, k+1, c.Name, ch)
				}
			}
		}
	}
	// Every version still reads exactly the rows it was published with.
	for k, db := range versions {
		if want := base + k*batch; db.NumRows() != want {
			t.Fatalf("version %d has %d rows, want %d", k, db.NumRows(), want)
		}
		for _, r := range []int{0, chunkRows - 1, chunkRows, db.NumRows() - 1} {
			got, want := rowValues(db.Fact, r), chunkedTestRow(r)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("version %d row %d = %v, want %v", k, r, got, want)
				}
			}
		}
	}

	// SetRow copies the chunk it writes into and shares the rest.
	last := versions[len(versions)-1].Fact
	upd := last.CloneForAppend()
	upd.SetRow(chunkRows+5, chunkedTestRow(-1)...)
	upd.SetRow(chunkRows+6, chunkedTestRow(-2)...)
	for ch := range last.cols[0].ints.sealed {
		shared := chunkAddr(last.cols[0], ch) == chunkAddr(upd.cols[0], ch)
		if shared != (ch != 1) {
			t.Fatalf("after SetRow in chunk 1, chunk %d shared = %v", ch, shared)
		}
	}
	if last.Column("id").Int(chunkRows+5) != chunkRows+5 || upd.Column("id").Int(chunkRows+5) != -1 {
		t.Fatal("SetRow tore the version it was cloned from")
	}
}

// TestStaleWriterFails: a table has one writer lineage. A second appender
// beside a live one, or an appender another has overtaken, fails with an error
// instead of writing over published rows; handing the newest version on to a
// new appender (recovery's replay, then the coordinator's) works.
func TestStaleWriterFails(t *testing.T) {
	rows := func(lo, n int) [][]Value {
		out := make([][]Value, n)
		for i := range out {
			out[i] = chunkedTestRow(lo + i)
		}
		return out
	}
	base := chunkedTestDB(10)
	first, err := NewAppender(base)
	if err != nil {
		t.Fatal(err)
	}
	beside, err := NewAppender(base) // both over the newest version: fine so far
	if err != nil {
		t.Fatal(err)
	}
	v1, err := first.Append(rows(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := beside.Append(rows(10, 5)); err == nil || !strings.Contains(err.Error(), "one writer lineage") {
		t.Fatalf("append from an overtaken appender: err = %v, want the lineage rule", err)
	}
	if _, err := NewAppender(base); err == nil || !strings.Contains(err.Error(), "one writer lineage") {
		t.Fatalf("NewAppender over a version shorter than what is written: err = %v, want the lineage rule", err)
	}
	// Sequential hand-off.
	second, err := NewAppender(v1)
	if err != nil {
		t.Fatalf("hand-off to a new appender over the newest version: %v", err)
	}
	v2, err := second.Append(rows(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Append(rows(15, 5)); err == nil {
		t.Fatal("the appender that handed off appended again")
	}
	for r := 0; r < v2.NumRows(); r++ {
		if got := v2.Fact.Column("id").Int(r); got != int64(r) {
			t.Fatalf("row %d = %d after the refused appends", r, got)
		}
	}
	if v1.NumRows() != 15 || base.NumRows() != 10 {
		t.Fatalf("older versions changed length: %d, %d", v1.NumRows(), base.NumRows())
	}
}
