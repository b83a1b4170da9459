package engine

import (
	"bytes"
	"strconv"
	"testing"
)

// widthSeedTables are small tables that decode into chunks of every kind of
// stored width — narrow (1, 3), a byte, straddling bytes (11), 16 and 32 bits
// and the values themselves for integers, 8 and 9 bits for codes in the
// first, and in the second a dictionary long enough for codes at 17 and, at
// its end, rows whose codes span it.
func widthSeedTables() []*Table {
	var ints []*Column
	for _, name := range []string{"i1", "i3", "i8", "i11", "i16", "i32", "i64"} {
		ints = append(ints, NewColumn(name, Int))
	}
	s8, s9, s17 := NewColumn("s8", String), NewColumn("s9", String), NewColumn("s17", String)
	small := NewTable("small", append(ints, s8, s9)...)
	for r := 0; r < 300; r++ {
		small.AppendRow(IntVal(int64(r%2)), IntVal(int64(r%7)-3), IntVal(int64(r%256)-128), IntVal(int64(r)*6),
			IntVal(int64(r)<<7), IntVal(int64(r)<<23), IntVal(int64(r)<<55),
			StringVal(strconv.Itoa(r%256)), StringVal(strconv.Itoa(r)))
	}
	for r := 0; r <= 1<<16+300; r++ {
		v := r
		if r > 1<<16 {
			v = r & 1 << 16 // the first string and the last by turns
		}
		s17.AppendString(strconv.FormatInt(int64(v), 36))
	}
	return []*Table{small, NewTable("long", s17)}
}

// FuzzReadBinary asserts the sample-table decoder never panics and never
// accepts a corrupted stream that then breaks invariants: a successfully
// decoded table must be internally consistent and queryable.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(binaryFixture(), &seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(tableMagic))
	f.Add([]byte("DSTB")) // the format before this one
	f.Add([]byte{})
	f.Add(overclaimingStream(f)) // the header claims more rows than arrive
	// One sample table per mask word count, one to four.
	for _, tbl := range append(widthSeedTables(), maskedFixture(16), maskedFixture(128), maskedFixture(146), maskedFixture(245)) {
		var seed bytes.Buffer
		if err := WriteBinary(tbl, &seed); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded tables must be consistent: every column has NumRows rows,
		// the mask and weight columns (if present) read as such, and every
		// cell decodes.
		for _, c := range tbl.Columns() {
			if c.Len() != tbl.NumRows() {
				t.Fatalf("column %q has %d rows, table %d", c.Name, c.Len(), tbl.NumRows())
			}
		}
		for i := 0; i < tbl.NumRows(); i++ {
			rowMask(tbl, i)
			tbl.RowWeight(i)
			for _, c := range tbl.Columns() {
				_ = c.Value(i)
			}
		}
	})
}
