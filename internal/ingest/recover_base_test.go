package ingest_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynsample/internal/catalog"
	"dynsample/internal/cluster"
	"dynsample/internal/core"
	"dynsample/internal/engine"
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

// TestRecoverOverAStarStripeKeepsTheData: a shard that restarts with a build
// whose stripe is a fact slice of the star schema finds generations that an
// earlier build saved over the stripe flattened into one table. Those
// families record no dimension stamps, so the family is skipped as one saved
// over other dimension tables. Its data is not: the checkpoint's delta, batch
// ids and data generation carry over, the configured strategy builds a family
// over base plus delta, and exact answers are the ones served before the
// restart.
func TestRecoverOverAStarStripeKeepsTheData(t *testing.T) {
	db, err := scenario.Builtin("tpch", 5000, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	stripe, err := cluster.Stripe(db, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	flatStripe := engine.MustNewDatabase(db.Name, stripe.Flat(db.Name+"_shard1"))
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	st := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Seed: 3})
	cfg := ingest.Config{Online: core.OnlineConfig{Seed: 5}}
	start := func(base *engine.Database) (*core.System, *ingest.Recovery) {
		t.Helper()
		w, err := ingest.OpenWAL(walDir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		sys := core.NewSystem(base)
		rec, err := ingest.Recover(sys, cat, w, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, rec
	}
	// Batches copy rows of the stripe, in view column order: their dimension
	// values exist in the base.
	cols := stripe.Columns()
	batch := func(from int) [][]engine.Value {
		rows := make([][]engine.Value, 50)
		for i := range rows {
			for _, c := range cols {
				acc, err := stripe.Accessor(c)
				if err != nil {
					t.Fatal(err)
				}
				rows[i] = append(rows[i], acc.Value(from+i))
			}
		}
		return rows
	}
	q := &engine.Query{GroupBy: []string{"p_type", "s_region"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_quantity"}}}

	sys, rec := start(flatStripe)
	for i := 0; i < 3; i++ {
		if _, err := rec.Coordinator.Ingest(fmt.Sprintf("b-%d", i), batch(100*i)); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := ingest.Rebuild(sys, rec.Coordinator, cat, st, st.Name(), 0); err != nil || res.PersistErr != nil || res.Generation != 2 {
		t.Fatalf("rebuild + checkpoint = %+v, %v; want generation 2", res, err)
	}
	if _, err := rec.Coordinator.Ingest("b-3", batch(300)); err != nil { // in the log only
		t.Fatal(err)
	}
	before, _, err := sys.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, gen := sys.DB().NumRows(), sys.DataGeneration()

	sys, rec = start(stripe)
	if len(rec.Skipped) != 1 || rec.Skipped[0].Generation != 2 || !errors.Is(rec.Skipped[0].Err, core.ErrOtherDimensions) {
		t.Fatalf("skipped %+v, want generation 2's family refused for its dimension tables", rec.Skipped)
	}
	if rec.Source != "preprocess" || rec.Generation != 3 || rec.SaveErr != nil || rec.Checkpoint.DataGen != 3 || rec.Replay.Batches != 1 {
		t.Fatalf("recovery = %q generation %d (save: %v), checkpoint %+v, replay %+v; want a build over the checkpoint's data saved as generation 3, b-3 replayed",
			rec.Source, rec.Generation, rec.SaveErr, rec.Checkpoint, rec.Replay)
	}
	if sys.DB().NumRows() != rows || sys.DataGeneration() != gen || len(sys.DB().Dims) != len(db.Dims) {
		t.Fatalf("%d rows at data generation %d over %d dimension tables, want %d at %d over %d",
			sys.DB().NumRows(), sys.DataGeneration(), len(sys.DB().Dims), rows, gen, len(db.Dims))
	}
	after, _, err := sys.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.NumGroups() != before.NumGroups() {
		t.Fatalf("exact answer: %d groups after the restart, %d before", after.NumGroups(), before.NumGroups())
	}
	for _, k := range before.Keys() {
		if a, b := after.Group(k), before.Group(k); a == nil || !reflect.DeepEqual(a.Vals, b.Vals) {
			t.Fatalf("exact answer, group %v: %+v after the restart, %+v before", b.Key, a, b)
		}
	}
	p, _ := sys.Prepared(st.Name())
	if p.DataGeneration() != gen {
		t.Fatalf("family at data generation %d, want %d", p.DataGeneration(), gen)
	}
	if _, err := rec.Coordinator.Ingest("b-1", batch(0)); !errors.Is(err, ingest.ErrDuplicate) {
		t.Fatalf("re-ingesting b-1: err = %v, want ErrDuplicate", err)
	}
}
