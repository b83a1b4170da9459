package engine

import (
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
	clone.MustColumn("amount").AppendFloat(42)
	clone.MustColumn("geo_fk").AppendInt(0)
	clone.MustColumn("tag").AppendString("fresh")
	clone.EndRow()
	if fact.NumRows() != 4 || clone.NumRows() != 5 {
		t.Fatalf("rows: orig %d clone %d, want 4/5", fact.NumRows(), clone.NumRows())
	}
	// New dictionary entry is invisible to the original column header.
	if fact.MustColumn("tag").DictSize() != 1 {
		t.Fatalf("original dict grew: %d", fact.MustColumn("tag").DictSize())
	}
	if clone.MustColumn("tag").DictSize() != 2 {
		t.Fatalf("clone dict = %d, want 2", clone.MustColumn("tag").DictSize())
	}
}

func TestCopyForUpdateIsolatesOverwrites(t *testing.T) {
	db := appendTestDB(t)
	fact := db.Fact
	cp := fact.CopyForUpdate()
	cp.SetRow(0, IntVal(1), FloatVal(99), StringVal("replaced"))
	if fact.MustColumn("amount").Float(0) != 0 {
		t.Fatal("SetRow leaked into the original")
	}
	if cp.MustColumn("amount").Float(0) != 99 {
		t.Fatal("SetRow did not apply")
	}
	if cp.MustColumn("tag").Value(0).S != "replaced" {
		t.Fatal("string overwrite did not apply")
	}
}

// TestAppendStaggersColumnGrowth: the first batch onto a freshly generated
// table (cap == len everywhere) has to grow every column, but from then on
// no batch may re-allocate more than one column's array — lock-step growth
// is a burst the size of the whole table.
func TestAppendStaggersColumnGrowth(t *testing.T) {
	const n, ncols = 2000, 8
	cols := make([]*Column, ncols)
	for ci := range cols {
		c := NewColumn(string(rune('a'+ci)), Int)
		c.ints = make([]int64, n)
		cols[ci] = c
	}
	app, err := NewAppender(MustNewDatabase("DB", NewTable("fact", cols...)))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]Value, ncols)
	for i := range row {
		row[i] = IntVal(int64(i))
	}
	caps := make([]int, ncols)
	for batch := 0; batch < 3*n; batch++ {
		db, err := app.Append([][]Value{row})
		if err != nil {
			t.Fatal(err)
		}
		grew := 0
		for ci, c := range db.Fact.cols {
			if cap(c.ints) != caps[ci] {
				grew++
				caps[ci] = cap(c.ints)
			}
		}
		if batch > 0 && grew > 1 {
			t.Fatalf("batch %d (row %d) re-allocated %d columns at once", batch, n+batch, grew)
		}
	}
	if got := app.db.NumRows(); got != 4*n {
		t.Fatalf("%d rows after the appends, want %d", got, 4*n)
	}
}
