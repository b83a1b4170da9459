package engine

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestTableFixtureReencodes holds the DST2 table format to the bytes an
// earlier build wrote: testdata/masked.dst2, a table with two mask word
// columns and a weight column, reads and writes back to the identical bytes.
func TestTableFixtureReencodes(t *testing.T) {
	want, err := os.ReadFile("testdata/masked.dst2")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := ReadBinary(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var masks, weights int
	for _, c := range tbl.Columns() {
		switch {
		case c.Name == WeightColumn:
			weights++
		case strings.HasPrefix(c.Name, ReservedPrefix):
			masks++
		}
	}
	if masks != 2 || weights != 1 {
		t.Fatalf("fixture has %d mask and %d weight columns, want 2 and 1", masks, weights)
	}
	var got bytes.Buffer
	if err := WriteBinary(tbl, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoded table differs: %d bytes, fixture %d", got.Len(), len(want))
	}
}
