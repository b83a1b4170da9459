package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// partsDB is a star of 3 000 fact rows, three scan blocks, over a part
// dimension of 40 rows: a p_brand string and a p_size integer.
func partsDB(t *testing.T) *Database {
	t.Helper()
	brand, size := NewColumn("p_brand", String), NewColumn("p_size", Int)
	for k := range 40 {
		brand.AppendString(fmt.Sprintf("brand#%d", k%10))
		size.AppendInt(int64(k % 7))
	}
	fk, price := NewColumn("part_fk", Int), NewColumn("price", Float)
	for i := range 3000 {
		fk.AppendInt(int64(i * 7 % 40))
		price.AppendFloat(float64(i % 13))
	}
	return MustNewDatabase("parts", NewTable("fact", fk, price), DimJoin{Table: NewTable("part", brand, size), FK: "part_fk"})
}

// partAnswers is a group-by over both dimension columns, read through the
// join, as sorted lines.
func partAnswers(t *testing.T, src Source) string {
	t.Helper()
	res, err := Execute(src, &Query{GroupBy: []string{"p_brand", "p_size"}, Aggs: []Aggregate{{Kind: Count}, {Kind: Sum, Col: "price"}}}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, g := range res.Groups() {
		lines = append(lines, fmt.Sprint(g.Key, g.Vals))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// brands reads every view row's p_brand through the join, row by row.
func brands(t *testing.T, db *Database) []Value {
	t.Helper()
	acc, err := db.Accessor("p_brand")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Value, db.NumRows())
	for r := range out {
		out[r] = acc.Value(r)
	}
	return out
}

// TestUnpackedArraysFollowVersions: a version the Appender grows with new
// dimension rows reads them through its own arrays, and the version before
// it keeps the arrays built first, its gathers and its answers. Each
// version's answers equal those of its rows flattened, which reads no array.
func TestUnpackedArraysFollowVersions(t *testing.T) {
	old := partsDB(t)
	wantAnswers, wantBrands := partAnswers(t, old), brands(t, old)
	if flat := partAnswers(t, old.Flat("flat")); wantAnswers != flat {
		t.Fatalf("answers through the arrays:\n%s\nflattened:\n%s", wantAnswers, flat)
	}

	oldArray := &old.Dims[0].Table.unpacked(0).([]int32)[0]

	app, err := NewAppender(old)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := range 200 {
		brand := StringVal(fmt.Sprintf("brand#%d", i%10))
		if i%4 == 0 {
			brand = StringVal("brand#new")
		}
		rows = append(rows, []Value{FloatVal(1), brand, IntVal(int64(i % 7))}) // price, p_brand, p_size
	}
	grown, err := app.Append(rows)
	if err != nil {
		t.Fatal(err)
	}
	oldPart, newPart := old.Dims[0].Table, grown.Dims[0].Table
	if oldPart == newPart || newPart.NumRows() <= oldPart.NumRows() {
		t.Fatalf("the batch added no dimension row: part has %d rows, was %d", newPart.NumRows(), oldPart.NumRows())
	}

	got := partAnswers(t, grown)
	if flat := partAnswers(t, grown.Flat("flat")); got != flat {
		t.Fatalf("the grown version through its arrays:\n%s\nflattened:\n%s", got, flat)
	}
	if !strings.Contains(got, "brand#new") {
		t.Fatalf("the grown version does not see its new dimension rows:\n%s", got)
	}
	for i, b := range brands(t, grown)[old.NumRows():] {
		if b != rows[i][1] {
			t.Fatalf("appended row %d reads p_brand %v, want %v", i, b, rows[i][1])
		}
	}
	if n := len(newPart.unpacked(0).([]int32)); n != newPart.NumRows() {
		t.Fatalf("the grown part's array holds %d rows, the table %d", n, newPart.NumRows())
	}

	if partAnswers(t, old) != wantAnswers {
		t.Fatal("the version before the batch answers otherwise once the grown one was read")
	}
	for r, b := range brands(t, old) {
		if b != wantBrands[r] {
			t.Fatalf("the version before the batch reads row %d as %v, was %v", r, b, wantBrands[r])
		}
	}
	if a := oldPart.unpacked(0).([]int32); len(a) != oldPart.NumRows() || &a[0] != oldArray {
		t.Fatalf("the old part reads another array (%d rows) than it built before the batch", len(a))
	}
}

// TestSetRowDropsUnpackedArrays: a dimension table version SetRow writes to
// reads the written row, through a scan and through an accessor, not the
// array built before the write.
func TestSetRowDropsUnpackedArrays(t *testing.T) {
	db := partsDB(t)
	part := db.Dims[0].Table
	before := partAnswers(t, db)
	brands(t, db)

	part.SetRow(0, StringVal("brand#set"), IntVal(99))
	got := partAnswers(t, db)
	if got == before || !strings.Contains(got, "brand#set") {
		t.Fatalf("a scan after SetRow reads the rows before it:\n%s", got)
	}
	if flat := partAnswers(t, db.Flat("flat")); got != flat {
		t.Fatalf("after SetRow, through the arrays:\n%s\nflattened:\n%s", got, flat)
	}
	fk := db.Fact.Column("part_fk")
	for r, b := range brands(t, db) {
		if fk.Int(r) == 0 && b != StringVal("brand#set") {
			t.Fatalf("row %d refers to the written part row and reads %v", r, b)
		}
	}
}

// TestConcurrentFirstReadsBuildOneArray: readers that read one dimension
// column through the join at once, none of them first, share one array.
func TestConcurrentFirstReadsBuildOneArray(t *testing.T) {
	db := partsDB(t)
	const readers = 8
	arrays := make([][]int32, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 { // half of them through a scan first
				if _, err := Execute(db, &Query{GroupBy: []string{"p_brand"}, Aggs: []Aggregate{{Kind: Count}}}, ExecOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
			acc, err := db.Accessor("p_brand")
			if err != nil {
				t.Error(err)
				return
			}
			arrays[i] = acc.(*fkCodeAccessor).codes
		}()
	}
	wg.Wait()
	for i, a := range arrays {
		if len(a) != 40 || &a[0] != &arrays[0][0] {
			t.Fatalf("reader %d read another array (%d rows) than reader 0", i, len(a))
		}
	}
}
