package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// onlineRows generates ingest rows in the skewedDB view order (a, b, m, u)
// with the same value distribution, with unique u continuing from start.
func onlineRows(rng *rand.Rand, start, count int) [][]engine.Value {
	rows := make([][]engine.Value, count)
	for i := range rows {
		var a string
		switch r := rng.Float64(); {
		case r < 0.80:
			a = "A0"
		case r < 0.95:
			a = "A1"
		default:
			a = "A" + string(rune('2'+rng.Intn(10)))
		}
		rows[i] = []engine.Value{
			engine.StringVal(a),
			engine.StringVal("B" + string(rune('0'+rng.Intn(4)))),
			engine.IntVal(int64((start+i)%97) + 1),
			engine.IntVal(int64(start + i)),
		}
	}
	return rows
}

// onlineSystem builds a system over skewedDB(n), preprocesses it, and
// attaches online maintenance.
func onlineSystem(t testing.TB, n int, cfg SmallGroupConfig, seed int64) (*System, *Online) {
	t.Helper()
	db := skewedDB(t, n)
	sys := NewSystem(db)
	if err := sys.AddStrategy(NewSmallGroup(cfg)); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys, o
}

// TestOnlineReservoirUniform checks that the maintained overall sample is a
// uniform fixed-size sample of the grown data: across many independent
// seeds, inclusion counts bucketed by row position (first half = original
// rows, second half = ingested rows) must be uniform. A strong positional
// bias — e.g. ingested rows over- or under-represented — would concentrate
// mass in some deciles and blow up the chi-square statistic.
func TestOnlineReservoirUniform(t *testing.T) {
	const (
		n0      = 2000
		ingest  = 2000
		trials  = 30
		buckets = 10
	)
	counts := make([]int64, buckets)
	var k int
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		_, o := onlineSystem(t, n0, SmallGroupConfig{
			BaseRate: 0.05, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: seed,
		}, seed*7+1)
		rng := randx.New(seed * 13)
		seq := uint64(0)
		for off := 0; off < ingest; off += 100 {
			seq++
			if _, err := o.Apply(seq, onlineRows(rng, n0+off, 100)); err != nil {
				t.Fatal(err)
			}
		}
		total := n0 + ingest
		ot := o.p.Overall()
		k = ot.NumRows()
		u := ot.Column("u")
		for r := 0; r < ot.NumRows(); r++ {
			pos := int(u.Int(r))
			counts[pos*buckets/total]++
		}
	}
	expected := float64(trials*k) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom, p=0.001 critical value.
	if chi2 > 27.877 {
		t.Fatalf("reservoir inclusion not uniform: chi-square=%.2f (buckets %v, expected %.1f each)", chi2, counts, expected)
	}
}

// expectedMask recomputes, from the metadata, the small group tables whose
// domains hold a row: bit i for table i.
func expectedMask(meta *Metadata, colPos map[string]int, row []engine.Value) []bool {
	bits := make([]bool, meta.Width())
	for _, cm := range meta.Columns() {
		if _, common := cm.Common[row[colPos[cm.Column]]]; !common {
			bits[cm.Index] = true
		}
	}
	for _, pm := range meta.Pairs() {
		v0, v1 := row[colPos[pm.Cols[0]]], row[colPos[pm.Cols[1]]]
		if _, rare := pm.Rare[engine.EncodeKey([]engine.Value{v0, v1})]; rare {
			bits[pm.Index] = true
		}
	}
	return bits
}

// TestOnlineSmallGroupMembership checks the exactness invariant after
// ingest: every base row whose value lies outside L(C) is present in C's
// small group table (same multiplicity), and every row of the table lies in
// the table's domain by the metadata's membership rule.
func TestOnlineSmallGroupMembership(t *testing.T) {
	const n0, ingest = 5000, 3000
	_, o := onlineSystem(t, n0, SmallGroupConfig{
		BaseRate: 0.02, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 5,
	}, 99)
	rng := randx.New(42)
	seq := uint64(0)
	for off := 0; off < ingest; off += 500 {
		seq++
		if _, err := o.Apply(seq, onlineRows(rng, n0+off, 500)); err != nil {
			t.Fatal(err)
		}
	}
	p := o.p
	meta := p.Meta()
	db := o.app.DB()
	view := db.Columns()
	colPos := make(map[string]int, len(view))
	for i, n := range view {
		colPos[n] = i
	}

	cmA, ok := meta.Column("a")
	if !ok {
		t.Fatal("column a not in S")
	}
	// Multiset of rare-a base rows, keyed by the full row tuple.
	wantRare := map[engine.GroupKey]int{}
	var wantTotal int
	accs := make([]engine.ColumnAccessor, len(view))
	for i, cn := range view {
		acc, err := db.Accessor(cn)
		if err != nil {
			t.Fatal(err)
		}
		accs[i] = acc
	}
	aPos := colPos["a"]
	row := make([]engine.Value, len(view))
	for r := 0; r < db.NumRows(); r++ {
		for i := range accs {
			row[i] = accs[i].Value(r)
		}
		if _, common := cmA.Common[row[aPos]]; common {
			continue
		}
		wantRare[engine.EncodeKey(row)]++
		wantTotal++
	}

	sg := p.Tables()[cmA.Index]
	if sg.NumRows() != wantTotal {
		t.Fatalf("sg_a has %d rows, want %d (every rare row, exactly once)", sg.NumRows(), wantTotal)
	}
	gotRare := map[engine.GroupKey]int{}
	for r := 0; r < sg.NumRows(); r++ {
		vals := rowValues(sg, r)
		gotRare[engine.EncodeKey(vals)]++
		if !expectedMask(meta, colPos, vals)[cmA.Index] {
			t.Fatalf("sg_a row %d lies outside the table's domain (row %v)", r, vals)
		}
	}
	for k, want := range wantRare {
		if gotRare[k] != want {
			t.Fatalf("rare row multiplicity mismatch: got %d, want %d", gotRare[k], want)
		}
	}
}

// TestOnlineAnswers checks answer quality after ingest: rare groups are
// answered exactly (and marked exact), and common-group estimates stay
// unbiased within a loose tolerance.
func TestOnlineAnswers(t *testing.T) {
	const n0, ingest = 8000, 4000
	sys, o := onlineSystem(t, n0, SmallGroupConfig{
		BaseRate: 0.05, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 7,
	}, 123)
	rng := randx.New(77)
	seq := uint64(0)
	for off := 0; off < ingest; off += 400 {
		seq++
		if _, err := o.Apply(seq, onlineRows(rng, n0+off, 400)); err != nil {
			t.Fatal(err)
		}
	}
	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}
	exact, err := engine.ExecuteExact(o.app.DB(), q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Approx("smallgroup", q)
	if err != nil {
		t.Fatal(err)
	}
	meta := o.p.Meta()
	for _, key := range exact.Keys() {
		eg := exact.Group(key)
		ag := ans.Result.Group(key)
		if ag == nil {
			t.Fatalf("group %v missing from approximate answer", eg.Key)
		}
		if _, common := meta.Columns()[0].Common[eg.Key[0]]; !common {
			// Rare group: must be exact.
			if !ag.Exact {
				t.Errorf("rare group %v not marked exact", eg.Key)
			}
			for i := range eg.Vals {
				if math.Abs(ag.Vals[i]-eg.Vals[i]) > 1e-6 {
					t.Errorf("rare group %v agg %d = %g, want exact %g", eg.Key, i, ag.Vals[i], eg.Vals[i])
				}
			}
			continue
		}
		for i := range eg.Vals {
			rel := math.Abs(ag.Vals[i]-eg.Vals[i]) / eg.Vals[i]
			if rel > 0.25 {
				t.Errorf("common group %v agg %d rel error %.3f too large (%g vs %g)", eg.Key, i, rel, ag.Vals[i], eg.Vals[i])
			}
		}
	}
}

// TestOnlineDriftGauge streams a brand-new value until its mass crosses the
// t·N threshold and checks the gauge crosses 1 exactly then.
func TestOnlineDriftGauge(t *testing.T) {
	const n0 = 4000
	_, o := onlineSystem(t, n0, SmallGroupConfig{
		BaseRate: 0.05, SmallGroupFraction: 0.05, DistinctLimit: 100, Seed: 3,
	}, 11)
	if d := o.Drift(); d >= 1 {
		t.Fatalf("initial drift %g >= 1", d)
	}
	// Each batch is 100 rows of the new value "HOT" in column a. After k
	// batches: count = 100k, N = n0 + 100k, threshold t·N.
	seq := uint64(0)
	hot := func(count int) [][]engine.Value {
		rows := make([][]engine.Value, count)
		for i := range rows {
			rows[i] = []engine.Value{
				engine.StringVal("HOT"),
				engine.StringVal("B0"),
				engine.IntVal(1),
				engine.IntVal(int64(n0) + int64(seq)*100 + int64(i)),
			}
		}
		return rows
	}
	crossed := false
	for batch := 0; batch < 40; batch++ {
		seq++
		st, err := o.Apply(seq, hot(100))
		if err != nil {
			t.Fatal(err)
		}
		count := float64((batch + 1) * 100)
		n := float64(n0 + (batch+1)*100)
		want := count / (0.05 * n)
		if math.Abs(st.Drift-want) > 1e-9 {
			t.Fatalf("batch %d: drift %g, want %g", batch, st.Drift, want)
		}
		if st.Drift >= 1 {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Fatal("drift never crossed 1")
	}
}

// preparedBytes is a prepared state's saved form — every sample table, the
// metadata, scale and generation; saving is deterministic, so two states are
// the same sample family exactly when these bytes are equal.
func preparedBytes(t testing.TB, p Prepared) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSmallGroup(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOnlineReplayDeterminism checks the crash-recovery contract at the core
// layer: restoring a snapshot taken mid-stream and replaying the same batch
// sequence (early batches base-only, later ones live) converges on sample
// tables bit-identical to the uninterrupted run.
func TestOnlineReplayDeterminism(t *testing.T) {
	const n0 = 3000
	cfg := SmallGroupConfig{BaseRate: 0.04, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 21}
	mkBatches := func() [][][]engine.Value {
		rng := randx.New(314)
		var out [][][]engine.Value
		for b := 0; b < 4; b++ {
			out = append(out, onlineRows(rng, n0+b*250, 250))
		}
		return out
	}

	// Uninterrupted run: apply all four batches.
	_, o1 := onlineSystem(t, n0, cfg, 55)
	for i, b := range mkBatches() {
		if _, err := o1.Apply(uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	want := preparedBytes(t, o1.p)

	// Interrupted run: apply two batches, snapshot, then "restart": reload
	// the snapshot over a fresh base and replay all four batches.
	_, o2 := onlineSystem(t, n0, cfg, 55)
	batches := mkBatches()
	for i := 0; i < 2; i++ {
		if _, err := o2.Apply(uint64(i+1), batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := SaveSmallGroup(&snap, o2.p); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSmallGroup(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.DataGeneration() != 2 {
		t.Fatalf("snapshot generation = %d, want 2", restored.DataGeneration())
	}
	sys3 := NewSystem(skewedDB(t, n0))
	sys3.AddPrepared("smallgroup", restored)
	o3, err := NewOnline(sys3, "smallgroup", OnlineConfig{Seed: 55, SmallGroupFraction: cfg.SmallGroupFraction})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range mkBatches() {
		st, err := o3.Apply(uint64(i+1), b)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && st.SmallGroupInserts+st.ReservoirSwaps != 0 {
			t.Fatalf("covered batch %d touched samples (%d inserts, %d swaps)", i+1, st.SmallGroupInserts, st.ReservoirSwaps)
		}
	}
	got := preparedBytes(t, o3.p)
	if !bytes.Equal(got, want) {
		t.Fatal("replayed sample family differs from uninterrupted run")
	}
	if g := o3.DataGeneration(); g != 4 {
		t.Fatalf("data generation = %d, want 4", g)
	}
}

// TestOnlineRebase simulates the rebuild handshake: pin the database
// mid-stream, preprocess it, keep ingesting, then rebase with the tail.
func TestOnlineRebase(t *testing.T) {
	const n0 = 3000
	cfg := SmallGroupConfig{BaseRate: 0.04, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 9}
	sys, o := onlineSystem(t, n0, cfg, 31)
	rng := randx.New(404)
	if _, err := o.Apply(1, onlineRows(rng, n0, 300)); err != nil {
		t.Fatal(err)
	}
	pinned, pinnedGen := sys.Data()
	var tail []TailBatch
	for i := 0; i < 2; i++ {
		rows := onlineRows(rng, n0+300+i*300, 300)
		if _, err := o.Apply(uint64(i+2), rows); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, TailBatch{Seq: uint64(i + 2), Rows: rows})
	}
	rebuilt, err := NewSmallGroup(cfg).Preprocess(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Rebase(rebuilt, pinnedGen, tail); err != nil {
		t.Fatal(err)
	}
	if g := o.p.DataGeneration(); g != 3 {
		t.Fatalf("rebased generation = %d, want 3", g)
	}
	// The rebased family must still answer rare groups exactly.
	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, err := engine.ExecuteExact(o.app.DB(), q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Approx("smallgroup", q)
	if err != nil {
		t.Fatal(err)
	}
	meta := o.p.Meta()
	cmA, _ := meta.Column("a")
	for _, key := range exact.Keys() {
		eg := exact.Group(key)
		if _, common := cmA.Common[eg.Key[0]]; common {
			continue
		}
		ag := ans.Result.Group(key)
		if ag == nil || !ag.Exact || math.Abs(ag.Vals[0]-eg.Vals[0]) > 1e-6 {
			t.Fatalf("rare group %v not exact after rebase", eg.Key)
		}
	}
	// Out-of-order or incomplete tails must be rejected.
	if err := o.Rebase(rebuilt, pinnedGen, nil); err == nil {
		t.Fatal("rebase with missing tail should fail")
	}
}

// TestOnlineRebaseFailureRestoresTracking: Rebase binds the new metadata and
// re-seeds the frequency counts before it can know the tail will replay, so a
// failure after that point must roll all of it back — otherwise subsequent
// applies would classify rows for the old (still published) family using the
// new family's common sets and counts. A run that survives a failed rebase
// must stay bit-identical to one that never attempted it.
func TestOnlineRebaseFailureRestoresTracking(t *testing.T) {
	const n0 = 3000
	cfg := SmallGroupConfig{BaseRate: 0.04, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 9}
	// Each batch carries 400 rows of a brand-new heavy value on top of the
	// background distribution: heavy enough that pre-processing the grown
	// data declares HOT common, so the rebuilt metadata's common sets (and
	// the frequency counts seeded from them) genuinely differ.
	mkBatch := func(start int) [][]engine.Value {
		rows := onlineRows(randx.New(int64(start)), start, 200)
		for i := 0; i < 400; i++ {
			rows = append(rows, []engine.Value{
				engine.StringVal("HOT"),
				engine.StringVal("B0"),
				engine.IntVal(1),
				engine.IntVal(int64(start + 200 + i)),
			})
		}
		return rows
	}

	_, ref := onlineSystem(t, n0, cfg, 77)
	if _, err := ref.Apply(1, mkBatch(n0)); err != nil {
		t.Fatal(err)
	}
	refDrift1 := ref.Drift()
	if _, err := ref.Apply(2, mkBatch(n0+600)); err != nil {
		t.Fatal(err)
	}
	wantBytes := preparedBytes(t, ref.p)
	wantDrift := ref.Drift()

	sys, o := onlineSystem(t, n0, cfg, 77)
	if _, err := o.Apply(1, mkBatch(n0)); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewSmallGroup(cfg).Preprocess(o.app.DB())
	if err != nil {
		t.Fatal(err)
	}
	// A stale pin with an empty tail cannot reach the data generation, so
	// the rebase fails — but only after bindMeta and seedFrequencies have
	// already run against the rebuilt metadata.
	if err := o.Rebase(rebuilt, 0, nil); err == nil {
		t.Fatal("rebase with a stale pin and no tail should fail")
	}
	if d := o.Drift(); d != refDrift1 {
		t.Fatalf("drift after failed rebase = %g, want %g (tracking not restored)", d, refDrift1)
	}
	// A family online maintenance does not support — a weighted overall
	// sample — is refused too, with the served family's state as it was and
	// nothing new published.
	wcfg := cfg
	wcfg.Overall = everyOtherRow{}
	weighted, err := NewSmallGroup(wcfg).Preprocess(o.app.DB())
	if err != nil {
		t.Fatal(err)
	}
	published := o.p
	if err := o.Rebase(weighted, 1, nil); err == nil {
		t.Fatal("rebase onto a weighted-overall family should fail")
	}
	if now, _ := sys.Prepared("smallgroup"); now != published || o.p != published {
		t.Fatal("a refused rebase changed the published family")
	}
	if _, err := o.Apply(2, mkBatch(n0+600)); err != nil {
		t.Fatal(err)
	}
	if got := preparedBytes(t, o.p); !bytes.Equal(got, wantBytes) {
		t.Error("sample family after failed rebase differs from a run that never attempted it")
	}
	if d := o.Drift(); d != wantDrift {
		t.Fatalf("drift after failed rebase + apply = %g, want %g", d, wantDrift)
	}
}

// everyOtherRow is a weighted overall builder: every second row, at weight 2.
type everyOtherRow struct{}

func (everyOtherRow) BuildOverall(db *engine.Database, _ float64) (rows []int, weights []float64, err error) {
	for r := 0; r < db.NumRows(); r += 2 {
		rows, weights = append(rows, r), append(weights, 2)
	}
	return rows, weights, nil
}

// TestOnlineNewValueInDroppedColumn covers the §4.2.1 corner pre-processing
// leaves behind: a column whose values are all common is removed from S, so
// a brand-new value arriving there is a small group with no table to land
// in. The drift gauge must floor at 1 — forcing the rebuild that re-admits
// the column — while new values in τ-excluded columns stay ignored, since a
// rebuild would drop those columns again anyway.
func TestOnlineNewValueInDroppedColumn(t *testing.T) {
	const n0 = 3000
	cfg := SmallGroupConfig{BaseRate: 0.04, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 9}
	sys, o := onlineSystem(t, n0, cfg, 31)
	meta := o.p.Meta()
	if _, inS := meta.Column("b"); inS {
		t.Fatal("fixture drift: b should have been dropped from S (no small groups)")
	}
	rng := randx.New(77)
	// onlineRows emits only known a/b values but an always-new unique u:
	// new values in the τ-excluded u must not move the gauge.
	if _, err := o.Apply(1, onlineRows(rng, n0, 200)); err != nil {
		t.Fatal(err)
	}
	if d := o.Drift(); d >= 1 {
		t.Fatalf("drift = %v after known-value batch, want < 1", d)
	}
	// One row with a brand-new value in the dropped column b.
	if _, err := o.Apply(2, [][]engine.Value{{
		engine.StringVal("A0"), engine.StringVal("B9"),
		engine.IntVal(1), engine.IntVal(int64(n0 + 200)),
	}}); err != nil {
		t.Fatal(err)
	}
	if d := o.Drift(); d < 1 {
		t.Fatalf("drift = %v after new value in dropped column, want >= 1", d)
	}
	// The rebuild the gauge demands re-admits b to S and clears the floor.
	pinned, pinnedGen := sys.Data()
	rebuilt, err := NewSmallGroup(cfg).Preprocess(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Rebase(rebuilt, pinnedGen, nil); err != nil {
		t.Fatal(err)
	}
	meta = o.p.Meta()
	if _, inS := meta.Column("b"); !inS {
		t.Fatal("rebuild did not re-admit b to S")
	}
	if d := o.Drift(); d >= 1 {
		t.Fatalf("drift = %v after rebuild, want < 1", d)
	}
	// The new group now answers exactly.
	ans, err := sys.Approx("smallgroup", &engine.Query{
		GroupBy: []string{"b"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ans.Result.Group(engine.EncodeKey([]engine.Value{engine.StringVal("B9")}))
	if g == nil || !g.Exact || g.Vals[0] != 1 {
		t.Fatalf("B9 group after rebuild = %+v, want exact count 1", g)
	}
}

// applyBytesPerBatch attaches online maintenance to a gathered copy of
// skewedDB(n) — no spare capacity, as a restored base has none — with an
// overall sample of sampleRows rows, and returns the mean bytes one Apply of
// batch rows allocated over the first batches.
func applyBytesPerBatch(t *testing.T, n, sampleRows, batch, batches int) float64 {
	t.Helper()
	sys := NewSystem(engine.MustNewDatabase("skewed", skewedDB(t, n).Flat("fact")))
	cfg := SmallGroupConfig{BaseRate: float64(sampleRows) / float64(n), SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 5}
	if err := sys.AddStrategy(NewSmallGroup(cfg)); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(31)
	input := make([][][]engine.Value, batches)
	for b := range input {
		input[b] = onlineRows(rng, n+b*batch, batch)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b, rows := range input {
		if _, err := o.Apply(uint64(b+1), rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(batches)
}

// TestOnlineApplyAllocatesPerBatchNotPerTable: with the overall sample held
// at one size, applying a batch costs the same on a base table ten times as
// long — no column of the base data is copied to make room — over the first
// 20 batches and over 120, in which every base column fills and seals 23
// chunks. Nor is any per-row array of the overall sample copied to swap a
// slot: at one sample row in ten base rows a ten-row batch makes a swap, more
// or less, and a sample ten times as long pays for it what the short one
// does plus the chunk lists the swapping version takes for its own, 64 B per
// 1 024 rows and column — a third of a byte per sample row, where copying an
// array of masks cost 32.
func TestOnlineApplyAllocatesPerBatchNotPerTable(t *testing.T) {
	short, long := applyBytesPerBatch(t, 50_000, 5000, 10, 200), applyBytesPerBatch(t, 500_000, 50_000, 10, 200)
	t.Logf("bytes per 10-row Apply over 200 batches: %.0f with a 5k-row sample, %.0f with a 50k-row one", short, long)
	if perRow := (long - short) / 45_000; perRow > 1 {
		t.Fatalf("a swap into a 50k-row sample allocates %.0f B, into a 5k-row one %.0f: %.1f B per sample row added", long, short, perRow)
	}
	for _, batches := range []int{20, 120} {
		small, large := applyBytesPerBatch(t, 50_000, 5000, 200, batches), applyBytesPerBatch(t, 500_000, 5000, 200, batches)
		t.Logf("bytes per 200-row Apply over %d batches: %.0f over 50k rows, %.0f over 500k rows", batches, small, large)
		if large > 2*small {
			t.Fatalf("Apply allocates %.0f B a batch over 500k rows against %.0f B over 50k: it grows with the table", large, small)
		}
	}
}

// ResultDigest renders every group's key, row count, exactness and
// accumulator bits; results with equal digests agree on all of them.
func ResultDigest(res *engine.Result) string {
	keys := res.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sb strings.Builder
	for _, k := range keys {
		g := res.Group(k)
		fmt.Fprintf(&sb, "%q %d %v", k, g.RawRows, g.Exact)
		for i := range g.Vals {
			fmt.Fprintf(&sb, " %x/%x/%x", math.Float64bits(g.Vals[i]), math.Float64bits(g.RawSum[i]), math.Float64bits(g.VarAcc[i]))
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// rowDigest renders the values and RowWeight of every row the family stores.
func rowDigest(p Prepared) string {
	sgp := p.(*smallGroupPrepared)
	var sb strings.Builder
	for _, tbl := range append(sgp.Tables(), sgp.Overall()) {
		for r := 0; r < tbl.NumRows(); r++ {
			fmt.Fprintf(&sb, "%q/%g;", engine.EncodeKey(rowValues(tbl, r)), tbl.RowWeight(r))
		}
	}
	return sb.String()
}

// TestPinnedVersionsUnchangedByIngest: readers holding the last four
// published versions re-run one query, exact and approximate, while the
// writer appends batches, inserts into small group tables and swaps reservoir
// slots. Every answer, and every stored row and weight, equals the one taken
// when the version was published; under -race, a write into storage a pinned
// version reads is a failure too.
func TestPinnedVersionsUnchangedByIngest(t *testing.T) {
	const n0, readers, checksPerReader, minBatches = 5000, 3, 40, 8
	// A half-rate sample: the reservoir spans three chunks and most batches
	// swap slots in each.
	sys, o := onlineSystem(t, n0, SmallGroupConfig{BaseRate: 0.5, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 3}, 11)
	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}

	type pin struct {
		db            *engine.Database
		p             Prepared
		exact, approx string
	}
	answers := func(db *engine.Database, p Prepared) (exact, approx string, err error) {
		ex, err := engine.ExecuteExact(db, q)
		if err != nil {
			return "", "", err
		}
		ans, err := p.Answer(q)
		if err != nil {
			return "", "", err
		}
		// The approximate answer reads the mask words through the scan; the
		// stored masks and weights are read row by row beside it.
		return ResultDigest(ex), ResultDigest(ans.Result) + rowDigest(p), nil
	}
	take := func() pin {
		p, _ := sys.Prepared("smallgroup")
		pn := pin{db: sys.DB(), p: p}
		var err error
		if pn.exact, pn.approx, err = answers(pn.db, pn.p); err != nil {
			t.Fatal(err)
		}
		return pn
	}

	var mu sync.Mutex
	window := []pin{take()}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < checksPerReader; i++ {
				mu.Lock()
				pn := window[(i+r)%len(window)]
				mu.Unlock()
				exact, approx, err := answers(pn.db, pn.p)
				if err != nil {
					t.Error(err)
					return
				}
				if exact != pn.exact || approx != pn.approx {
					t.Errorf("reader %d: the version pinned at %d rows answers differently now", r, pn.db.NumRows())
					return
				}
			}
		}(r)
	}
	readersDone := make(chan struct{})
	go func() { wg.Wait(); close(readersDone) }()

	rng := randx.New(41)
	var swaps, inserts int
	seq := uint64(0)
	for running := true; running || seq < minBatches; {
		seq++
		st, err := o.Apply(seq, onlineRows(rng, n0+int(seq-1)*200, 200))
		if err != nil {
			t.Fatal(err)
		}
		swaps, inserts = swaps+st.ReservoirSwaps, inserts+st.SmallGroupInserts
		pn := take()
		mu.Lock()
		if window = append(window, pn); len(window) > 4 {
			window = window[1:]
		}
		mu.Unlock()
		select {
		case <-readersDone:
			running = false
		default:
		}
	}
	<-readersDone
	if swaps == 0 || inserts == 0 {
		t.Fatalf("%d batches made %d reservoir swaps and %d small group inserts: the writer did not exercise both", seq, swaps, inserts)
	}
}

// TestSecondWriterFailsInsteadOfCorrupting: two Onlines over one System are
// two writer lineages over one base. The one that falls behind is refused —
// before it touches a dictionary or a tail chunk — and the published state
// keeps answering; a new Online over the newest version takes over cleanly.
func TestSecondWriterFailsInsteadOfCorrupting(t *testing.T) {
	const n0 = 3000
	sys, first := onlineSystem(t, n0, SmallGroupConfig{BaseRate: 0.1, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 2}, 5)
	second, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(8)
	if _, err := first.Apply(1, onlineRows(rng, n0, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Apply(1, onlineRows(rng, n0, 300)); err == nil || !strings.Contains(err.Error(), "one writer lineage") {
		t.Fatalf("Apply from the overtaken writer: err = %v, want the lineage rule", err)
	}
	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	before, err := sys.Approx("smallgroup", q)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.DB().NumRows(); got != n0+300 {
		t.Fatalf("%d rows published after the refused batch, want %d", got, n0+300)
	}
	// Hand-off: a writer built over what the first one published carries on.
	third, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := third.Apply(2, onlineRows(rng, n0+300, 300)); err != nil {
		t.Fatalf("Apply after a hand-off: %v", err)
	}
	if _, err := first.Apply(2, onlineRows(rng, n0+300, 300)); err == nil {
		t.Fatal("the writer that was handed off from applied another batch")
	}
	after, err := sys.Approx("smallgroup", q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Result.NumGroups() == 0 || after.Result.NumGroups() < before.Result.NumGroups() {
		t.Fatalf("groups: %d before the hand-off, %d after", before.Result.NumGroups(), after.Result.NumGroups())
	}
}
