package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/scenario"
	"dynsample/internal/stats"
)

// pathBase regenerates the base every path starts from: tpch at 30 000 fact
// rows, drawn with seed. Two seeds make two bases of one row count whose
// dimension tables differ.
func pathBase(t *testing.T, seed int64) *engine.Database {
	t.Helper()
	db, err := scenario.Builtin("tpch", 30000, 2.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// pathBatches draws k ingest batches of n rows in view column order: copies
// of base rows, every third with a p_brand no part holds, so that appending
// it adds a dimension row and puts the row in p_brand's small group table.
func pathBatches(t *testing.T, db *engine.Database, k, n int) [][][]engine.Value {
	t.Helper()
	cols := db.Columns()
	accs := make([]engine.ColumnAccessor, len(cols))
	for i, c := range cols {
		var err error
		if accs[i], err = db.Accessor(c); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][][]engine.Value, k)
	for b := range out {
		for j := range n {
			src := (b*n + j) * 7919 % db.NumRows()
			row := make([]engine.Value, len(cols))
			for i, c := range cols {
				row[i] = accs[i].Value(src)
				if c == "p_brand" && j%3 == 0 {
					row[i] = engine.StringVal(fmt.Sprintf("p_brand_new_%d", b))
				}
			}
			out[b] = append(out[b], row)
		}
	}
	return out
}

// sameAnswers fails unless the family registered as name answers every
// query on a bit for bit as on b.
func sameAnswers(t *testing.T, path string, a, b *core.System, name string, queries []*engine.Query) {
	t.Helper()
	for qi, q := range queries {
		want, err := a.Approx(name, q)
		if err != nil {
			t.Fatalf("%s query %d: %v", path, qi, err)
		}
		got, err := b.Approx(name, q)
		if err != nil {
			t.Fatalf("%s query %d: %v", path, qi, err)
		}
		ivs := make(map[engine.GroupKey][]stats.Interval)
		for _, k := range want.Result.Keys() {
			for i := range q.Aggs {
				ivs[k] = append(ivs[k], want.Interval(k, i))
			}
		}
		if err := sameAnswer(got, want.Result, ivs); err != nil {
			t.Errorf("%s query %d (%s): %v", path, qi, q, err)
		}
	}
}

// savedBytes is SaveSmallGroup's stream of p.
func savedBytes(t *testing.T, p core.Prepared) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveSmallGroup(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// throughEveryPath takes the family st builds over pathBase(t, 3) along
// every path a family reaches a system by — the build; save → load →
// re-save, to the same bytes; online batches; a Rebase with a tail; and
// ingest.Snapshot.Restore over the base plus the checkpoint's delta — the
// online ones when online maintenance supports the family. After each, every
// sample table, the overall sample's too, read through its join holds the base
// rows it should (core.AssertSlicesHoldBaseRows), the owner rule answers the
// queries as the row-level bitmask filter does
// (core.AssertExclusionMatchesRowFilter), and two paths to one family answer
// the queries bit for bit alike. A save restored over another base of the same
// row count is refused, by the dimension's name.
func throughEveryPath(t *testing.T, st *core.SmallGroup, online bool, queries []*engine.Query) {
	t.Helper()
	name := st.Name()
	built := core.NewSystem(pathBase(t, 3))
	if err := built.AddStrategy(st); err != nil {
		t.Fatal(err)
	}
	fresh, _ := built.Prepared(name)
	core.AssertSlicesHoldBaseRows(t, fresh, built.DB())
	core.AssertExclusionMatchesRowFilter(t, fresh, queries)

	saved := savedBytes(t, fresh)
	load := func() core.Prepared {
		t.Helper()
		p, err := core.LoadSmallGroup(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	loaded := core.NewSystem(pathBase(t, 3))
	if err := loaded.AddPrepared(name, load()); err != nil {
		t.Fatal(err)
	}
	lp, _ := loaded.Prepared(name)
	if !bytes.Equal(savedBytes(t, lp), saved) {
		t.Fatal("load → re-save: the loaded family saves to other bytes")
	}
	core.AssertSlicesHoldBaseRows(t, lp, loaded.DB())
	core.AssertExclusionMatchesRowFilter(t, lp, queries)
	sameAnswers(t, "load", built, loaded, name, queries)

	err := core.NewSystem(pathBase(t, 4)).AddPrepared(name, load())
	if !errors.Is(err, core.ErrOtherDimensions) || !strings.Contains(err.Error(), "dimension \"") {
		t.Fatalf("restoring over another base of the same row count: %v, want it refused by the dimension's name", err)
	}

	// The family that reaches a system after the online paths (or the build
	// alone) and the Snapshot.Restore of it answer alike.
	last, lastDB := fresh, built.DB()
	var gen uint64
	if online {
		batches := pathBatches(t, built.DB(), 4, 120)
		onA, err := core.NewOnline(built, name, core.OnlineConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		onB, err := core.NewOnline(loaded, name, core.OnlineConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		swaps := 0
		for i, b := range batches[:3] {
			for _, o := range []*core.Online{onA, onB} {
				st, err := o.Apply(uint64(i+1), b)
				if err != nil {
					t.Fatal(err)
				}
				swaps += st.ReservoirSwaps
			}
		}
		if swaps == 0 {
			t.Fatal("online batches: no reservoir swap reached the overall sample")
		}
		pA, dbA := core.OnlineState(onA)
		pB, _ := core.OnlineState(onB)
		core.AssertSlicesHoldBaseRows(t, pA, dbA)
		core.AssertExclusionMatchesRowFilter(t, pA, queries)
		if !bytes.Equal(savedBytes(t, pA), savedBytes(t, pB)) {
			t.Fatal("online batches: the built and the loaded family grew apart")
		}
		sameAnswers(t, "online", built, loaded, name, queries)

		pinned, pinnedGen := built.Data()
		rebuilt, err := st.Preprocess(pinned)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := onA.Apply(4, batches[3]); err != nil {
			t.Fatal(err)
		}
		if err := onA.Rebase(rebuilt, pinnedGen, []core.TailBatch{{Seq: 4, Rows: batches[3]}}); err != nil {
			t.Fatal(err)
		}
		last, lastDB = core.OnlineState(onA)
		core.AssertSlicesHoldBaseRows(t, last, lastDB)
		core.AssertExclusionMatchesRowFilter(t, last, queries)
		gen = 4
	}

	var ck bytes.Buffer
	if err := ingest.WriteCheckpoint(&ck, last, ingest.Checkpoint{DataGen: gen, BaseRows: 30000}, lastDB, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := ingest.DecodeSnapshot(&ck)
	if err != nil {
		t.Fatal(err)
	}
	restored := core.NewSystem(pathBase(t, 3))
	if err := snap.Restore(restored, name); err != nil {
		t.Fatal(err)
	}
	rp, _ := restored.Prepared(name)
	core.AssertSlicesHoldBaseRows(t, rp, restored.DB())
	core.AssertExclusionMatchesRowFilter(t, rp, queries)
	sameAnswers(t, "restore", built, restored, name, queries)
}
