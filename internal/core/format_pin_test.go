package core

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// fixtureFamilyConfig built testdata/family.dssg over pairDB(2000): a pair
// table and two levels.
var fixtureFamilyConfig = SmallGroupConfig{
	BaseRate: 0.05, SmallGroupFraction: 0.02, Seed: 2,
	Levels: []HierarchyLevel{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.02, Rate: 0.5}},
	Pairs:  [][2]string{{"a", "b"}},
}

// TestFamilyFixtureReencodes holds the DSSG store, version 8, to the bytes
// an earlier build wrote: testdata/family.dssg, a family with a pair table
// and two levels, loads, records the config that built it, and saves back to
// the identical stream.
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
	if err := NewSmallGroup(fixtureFamilyConfig).CheckFamily(p); err != nil {
		t.Fatal(err)
	}
	if got := preparedBytes(t, p); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded family differs: %d bytes, fixture %d", len(got), len(want))
	}
}

// TestFamilyFixtureV4Refused: testdata/family-v4.dssg, the same kind of
// family as version 4 wrote it, does not record its config, and a load
// refuses it by its version.
func TestFamilyFixtureV4Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/family-v4.dssg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSmallGroup(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "store version 4") {
		t.Fatalf("loading a version 4 store: %v, want it refused by version", err)
	}
}

// TestFamilyFixtureV5Refused: testdata/family-v5.dssg, the family
// testdata/family.dssg holds as version 5 wrote it, stores its small group
// tables flattened, and a load refuses it by its version.
func TestFamilyFixtureV5Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/family-v5.dssg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSmallGroup(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "store version 5") {
		t.Fatalf("loading a version 5 store: %v, want it refused by version", err)
	}
}

// TestFamilyFixtureV6Refused: testdata/family-v6.dssg, the family
// testdata/family.dssg holds as version 6 wrote it, stores its overall sample
// flattened, and a load refuses it by its version.
func TestFamilyFixtureV6Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/family-v6.dssg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSmallGroup(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "stores its overall sample flattened") {
		t.Fatalf("loading a version 6 store: %v, want it refused by version", err)
	}
}

// TestFamilyFixtureV7Refused: testdata/family-v7.dssg, the family
// testdata/family.dssg holds as version 7 wrote it, stores membership masks
// with its sample rows, and a load refuses it by its version.
func TestFamilyFixtureV7Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/family-v7.dssg")
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadSmallGroup(bytes.NewReader(old))
	if !errors.Is(err, ErrStoreVersion) || !strings.Contains(err.Error(), "stores membership masks") {
		t.Fatalf("loading a version 7 store: %v, want it refused by version", err)
	}
}
