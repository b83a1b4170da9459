package core

import (
	"bytes"
	"os"
	"testing"
)

// TestFamilyFixtureReencodes holds the DSSG store to the bytes an earlier
// build wrote: testdata/family.dssg, a family with a pair table and two
// levels, loads and saves back to the identical stream.
func TestFamilyFixtureReencodes(t *testing.T) {
	want, err := os.ReadFile("testdata/family.dssg")
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadSmallGroup(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Meta().Pairs()) == 0 {
		t.Fatal("fixture holds no pair metadata")
	}
	if got := preparedBytes(t, p); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded family differs: %d bytes, fixture %d", len(got), len(want))
	}
}
