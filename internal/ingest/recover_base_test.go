package ingest_test

import (
	"errors"
	"strings"
	"testing"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/ingest"
	"dynsample/internal/scenario"
)

// TestRecoverSkipsAnotherBase: a generation saved over one base is restored
// over another of the same row count, drawn with another seed. The family's
// fact slices would join dimension tables it was not saved over, so it is
// skipped, by the dimension's name, and the strategy builds a family over
// the base there is.
func TestRecoverSkipsAnotherBase(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Seed: 3})
	start := func(seed int64) *ingest.Recovery {
		t.Helper()
		db, err := scenario.Builtin("tpch", 5000, 2.0, seed)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ingest.Recover(core.NewSystem(db), cat, nil, st, ingest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	if rec := start(1); rec.Source != "preprocess" || rec.Generation != 1 {
		t.Fatalf("first start = %q generation %d, want a fresh build saved as generation 1", rec.Source, rec.Generation)
	}
	rec := start(2)
	if len(rec.Skipped) != 1 || !errors.Is(rec.Skipped[0].Err, core.ErrOtherDimensions) || !strings.Contains(rec.Skipped[0].Err.Error(), "dimension \"") {
		t.Fatalf("skipped %+v, want generation 1 refused naming a dimension", rec.Skipped)
	}
	if rec.Source != "preprocess" || rec.Generation != 2 {
		t.Fatalf("start over another base = %q generation %d, want a fresh build saved as generation 2", rec.Source, rec.Generation)
	}
}
