package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// TestSaveIsDeterministic: one sample family saves to one byte string — the
// value sets and pair keys live in maps, whose iteration order must not reach
// the file — so catalog generations and replayed families can be compared by
// content, and a load → save round trip is the identity.
func TestSaveIsDeterministic(t *testing.T) {
	orig := prep(t, skewedDB(t, 10000), SmallGroupConfig{
		BaseRate: 0.02, DistinctLimit: 100, Seed: 1, Pairs: [][2]string{{"a", "b"}},
	})
	first := preparedBytes(t, orig)
	loaded, err := LoadSmallGroup(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, preparedBytes(t, orig)) {
		t.Fatal("two saves of one prepared state differ")
	}
	if !bytes.Equal(first, preparedBytes(t, loaded)) {
		t.Fatal("a loaded copy saves to different bytes")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := skewedDB(t, 10000)
	orig := prep(t, db, SmallGroupConfig{
		BaseRate: 0.02, DistinctLimit: 100, Seed: 1, MaxTablesPerQuery: 3,
	})

	var buf bytes.Buffer
	if err := SaveSmallGroup(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSmallGroup(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// The restored state must answer queries identically, with no access to
	// the base database.
	queries := []*engine.Query{
		{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}},
		{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}},
			Where: []engine.Predicate{engine.NewIn("b", engine.StringVal("B0"), engine.StringVal("B1"))}},
	}
	for qi, q := range queries {
		a1, err := orig.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := loaded.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if a1.Result.NumGroups() != a2.Result.NumGroups() {
			t.Fatalf("query %d: groups %d vs %d", qi, a1.Result.NumGroups(), a2.Result.NumGroups())
		}
		for _, k := range a1.Result.Keys() {
			g1, g2 := a1.Result.Group(k), a2.Result.Group(k)
			if g2 == nil {
				t.Fatalf("query %d: group %v missing after reload", qi, g1.Key)
			}
			if g1.Exact != g2.Exact {
				t.Errorf("query %d group %v: exactness differs", qi, g1.Key)
			}
			for i := range g1.Vals {
				if math.Abs(g1.Vals[i]-g2.Vals[i]) > 1e-9 {
					t.Errorf("query %d group %v agg %d: %g vs %g", qi, g1.Key, i, g1.Vals[i], g2.Vals[i])
				}
				iv1, iv2 := a1.Interval(k, i), a2.Interval(k, i)
				if math.Abs(iv1.Width()-iv2.Width()) > 1e-9 {
					t.Errorf("query %d group %v agg %d: CI widths %g vs %g", qi, g1.Key, i, iv1.Width(), iv2.Width())
				}
			}
		}
	}
	if orig.SampleRows() != loaded.SampleRows() {
		t.Errorf("sample rows %d vs %d", orig.SampleRows(), loaded.SampleRows())
	}
}

func TestSaveLoadWithPairsAndLevels(t *testing.T) {
	db := pairDB(t, 8000)
	orig := prep(t, db, SmallGroupConfig{
		BaseRate:           0.05,
		SmallGroupFraction: 0.02,
		Seed:               2,
		Pairs:              [][2]string{{"a", "b"}},
		Levels: []HierarchyLevel{
			{MaxFraction: 0.01, Rate: 1},
			{MaxFraction: 0.02, Rate: 0.5},
		},
	})
	var buf bytes.Buffer
	if err := SaveSmallGroup(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSmallGroup(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lm := loaded.(*smallGroupPrepared).Meta()
	if len(lm.Pairs()) != len(orig.Meta().Pairs()) {
		t.Fatalf("pairs %d vs %d", len(lm.Pairs()), len(orig.Meta().Pairs()))
	}
	q := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	a1, _ := orig.Answer(q)
	a2, err := loaded.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range a1.Result.Keys() {
		if math.Abs(a1.Result.Group(k).Vals[0]-a2.Result.Group(k).Vals[0]) > 1e-9 {
			t.Errorf("group %v differs after reload", engine.DecodeKey(k))
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("DSSGxxxxxxxxxxxxxxxx"),
	}
	for i, b := range cases {
		if _, err := LoadSmallGroup(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestSaveRejectsForeignPrepared(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveSmallGroup(&buf, fakePrepared{}); err == nil {
		t.Error("foreign Prepared accepted")
	}
}

// fakePrepared satisfies Prepared by embedding it; any call panics.
type fakePrepared struct{ Prepared }

func TestTruncatedStreamRejected(t *testing.T) {
	db := skewedDB(t, 3000)
	orig := prep(t, db, SmallGroupConfig{BaseRate: 0.05, DistinctLimit: 100, Seed: 3})
	var buf bytes.Buffer
	if err := SaveSmallGroup(&buf, orig); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, len(full) / 3, len(full) - 5} {
		if _, err := LoadSmallGroup(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// starDB is a star schema of n fact rows: a skewed fact column a, a measure
// m, and a foreign key into a 40-row dimension whose columns d_region
// (skewed, a small group of its own) and d_size are drawn from seed.
func starDB(t testing.TB, n int, seed int64) *engine.Database {
	t.Helper()
	rng := randx.New(seed)
	region, size := engine.NewColumn("d_region", engine.String), engine.NewColumn("d_size", engine.Int)
	dim := engine.NewTable("dim", region, size)
	for i := 0; i < 40; i++ {
		region.AppendString("R" + string(rune('0'+min(i/30*(1+rng.Intn(5)), 9))))
		size.AppendInt(int64(rng.Intn(7)))
		dim.EndRow()
	}
	a, m, fk := engine.NewColumn("a", engine.String), engine.NewColumn("m", engine.Int), engine.NewColumn("dim_fk", engine.Int)
	fact := engine.NewTable("fact", a, m, fk)
	for i := 0; i < n; i++ {
		a.AppendString("A" + string(rune('0'+min(rng.Intn(40), 9))))
		m.AppendInt(int64(i%97) + 1)
		fk.AppendInt(int64(rng.Intn(40)))
		fact.EndRow()
	}
	return engine.MustNewDatabase("star", fact, engine.DimJoin{Table: dim, FK: "dim_fk"})
}

// TestRenormalizedSaveRejected: a family over a star schema, whose small
// group tables are fact slices — the renormalized join synopses of §5.2.2,
// which the store once refused — round-trips: it saves, loads unjoined and
// refuses to answer until a System binds it to the database's dimension
// tables, then answers as the fresh family does and saves back to the bytes
// it was loaded from. Bound to a base with another dimension table it is
// refused, by the dimension's name.
func TestRenormalizedSaveRejected(t *testing.T) {
	db := starDB(t, 4000, 5)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, SmallGroupFraction: 0.1, Seed: 9})
	if _, ok := p.meta.Index("d_region"); !ok {
		t.Fatal("fixture: the dimension column d_region has no small group table")
	}
	saved := preparedBytes(t, p)
	loaded, err := LoadSmallGroup(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"d_region", "a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}
	if _, err := loaded.Answer(q); err == nil {
		t.Fatal("a loaded family answered before it was joined to its dimension tables")
	}
	if err := NewSystem(starDB(t, 4000, 6)).AddPrepared("smallgroup", loaded); !errors.Is(err, ErrOtherDimensions) || !strings.Contains(err.Error(), `"dim"`) {
		t.Fatalf("binding to another base: %v, want it refused naming dimension \"dim\"", err)
	}
	if err := NewSystem(db).AddPrepared("smallgroup", loaded); err != nil {
		t.Fatal(err)
	}
	want, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(got, want) {
		t.Fatal("the bound family answers otherwise than the fresh one")
	}
	if !bytes.Equal(preparedBytes(t, loaded), saved) {
		t.Fatal("the bound family saves to other bytes than it was loaded from")
	}
}

// TestRestoredFamilyWatchesItsOwnDistinctLimit: a family saved and loaded
// keeps the τ it was built with, so online maintenance of the restored family
// watches the columns a fresh one does. At DistinctLimit 100 skewedDB's
// unique column u is τ-excluded and not watched; a restored family that fell
// back to the default τ would watch it, and the first batch of new ids would
// floor the drift gauge at 1 and force a rebuild.
func TestRestoredFamilyWatchesItsOwnDistinctLimit(t *testing.T) {
	const n0 = 3000
	cfg := SmallGroupConfig{BaseRate: 0.04, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 9}
	rows := onlineRows(randx.New(77), n0, 200)
	_, fresh := onlineSystem(t, n0, cfg, 31)
	if _, err := fresh.Apply(1, rows); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSmallGroup(bytes.NewReader(preparedBytes(t, prep(t, skewedDB(t, n0), cfg))))
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(skewedDB(t, n0))
	sys.AddPrepared("smallgroup", loaded)
	restored, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: 31, SmallGroupFraction: cfg.SmallGroupFraction})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Apply(1, rows); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Drift(), fresh.Drift(); got != want || got >= 1 {
		t.Fatalf("drift after a batch of new ids: %g restored, %g fresh", got, want)
	}
	if !bytes.Equal(preparedBytes(t, restored.Prepared()), preparedBytes(t, fresh.Prepared())) {
		t.Fatal("the restored family maintained one batch differs from the fresh one")
	}
}

// TestBindRefusesKeysPastTheDimension: a loaded fact slice, a small group
// table's or the overall sample's, whose foreign key points past the rows its
// dimension was saved with is refused when a System binds it, not read out of
// range by a scan.
func TestBindRefusesKeysPastTheDimension(t *testing.T) {
	db := starDB(t, 4000, 5)
	saved := preparedBytes(t, prep(t, db, SmallGroupConfig{BaseRate: 0.05, SmallGroupFraction: 0.1, Seed: 9}))
	for _, which := range []string{"small group table", "overall sample"} {
		loaded, err := LoadSmallGroup(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		sgp := loaded.(*smallGroupPrepared)
		fact := sgp.tables[0].src.Fact
		if which == "overall sample" {
			fact = sgp.overall.src.Fact
		}
		row := fact.RowValues(0)
		for j, name := range fact.ColumnNames() {
			if name == "dim_fk" {
				row[j] = engine.IntVal(40) // the dimension has rows 0..39
			}
		}
		fact.SetRow(0, row...)
		err = NewSystem(db).AddPrepared("smallgroup", loaded)
		if err == nil || !strings.Contains(err.Error(), "binding "+fact.Name) || !strings.Contains(err.Error(), "refers to row 40") {
			t.Fatalf("binding a %s with a key past its dimension: %v", which, err)
		}
	}
}
