package engine

import (
	"bytes"
	"testing"
)

// FuzzReadBinary asserts the sample-table decoder never panics and never
// accepts a corrupted stream that then breaks invariants: a successfully
// decoded table must be internally consistent and queryable.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(binaryFixture(), &seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("DSTB"))
	f.Add([]byte{})
	f.Add(overclaimingStream(f)) // the header claims more rows than arrive

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded tables must be consistent: every column has NumRows rows,
		// side arrays (if present) match, and a scan succeeds.
		for _, c := range tbl.Columns() {
			if c.Len() != tbl.NumRows() {
				t.Fatalf("column %q has %d rows, table %d", c.Name, c.Len(), tbl.NumRows())
			}
		}
		if tbl.Masks != nil && len(tbl.Masks) != tbl.NumRows() {
			t.Fatalf("masks %d vs rows %d", len(tbl.Masks), tbl.NumRows())
		}
		if tbl.Weights != nil && len(tbl.Weights) != tbl.NumRows() {
			t.Fatalf("weights %d vs rows %d", len(tbl.Weights), tbl.NumRows())
		}
		for i := 0; i < tbl.NumRows(); i++ {
			for _, c := range tbl.Columns() {
				_ = c.Value(i)
			}
		}
	})
}
