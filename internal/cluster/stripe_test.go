package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// stripeDB builds an intentionally awkward row count (not divisible by the
// shard counts under test) with integer measures, so partition sums must
// reproduce the single-table answer bit-for-bit.
func stripeDB(t *testing.T, rows int) *engine.Database {
	t.Helper()
	cat := engine.NewColumn("cat", engine.String)
	qty := engine.NewColumn("qty", engine.Int)
	fact := engine.NewTable("orders", cat, qty)
	for i := 0; i < rows; i++ {
		cat.AppendString(string(rune('a' + i%5)))
		qty.AppendInt(int64(i%13 + 1))
		fact.EndRow()
	}
	return engine.MustNewDatabase("ordersdb", fact)
}

func TestStripePartitionsDisjointAndExhaustive(t *testing.T) {
	const rows = 103
	db := stripeDB(t, rows)
	q := &engine.Query{
		GroupBy: []string{"cat"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "qty"}},
	}
	whole, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 7} {
		total := 0
		merged := engine.NewResult(q.GroupBy, q.Aggs)
		for id := 0; id < shards; id++ {
			striped, err := Stripe(db, id, shards)
			if err != nil {
				t.Fatal(err)
			}
			if striped.Name != db.Name {
				t.Fatalf("stripe renamed the database: %q", striped.Name)
			}
			n := striped.NumRows()
			if lo, hi := rows/shards, rows/shards+1; n < lo || n > hi {
				t.Errorf("shards=%d id=%d: %d rows, want %d or %d (near-equal stripes)",
					shards, id, n, lo, hi)
			}
			total += n
			part, err := engine.ExecuteExact(striped, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if total != rows {
			t.Errorf("shards=%d: stripes cover %d rows, want %d", shards, total, rows)
		}
		// Integer measures: the merged partition answers must equal the
		// whole-table answers exactly, per group and per aggregate.
		if merged.NumGroups() != whole.NumGroups() {
			t.Fatalf("shards=%d: merged has %d groups, whole has %d",
				shards, merged.NumGroups(), whole.NumGroups())
		}
		for _, k := range whole.Keys() {
			wg, mg := whole.Group(k), merged.Group(k)
			if mg == nil {
				t.Fatalf("shards=%d: group %v missing after merge", shards, wg.Key)
			}
			for a := range wg.Vals {
				if wg.Vals[a] != mg.Vals[a] {
					t.Errorf("shards=%d group %v agg %d: merged %v != whole %v",
						shards, wg.Key, a, mg.Vals[a], wg.Vals[a])
				}
			}
		}
	}
}

func TestStripeRejectsBadSlots(t *testing.T) {
	db := stripeDB(t, 10)
	for _, tc := range []struct{ id, shards int }{
		{-1, 4}, {4, 4}, {0, 0}, {0, -2},
	} {
		if _, err := Stripe(db, tc.id, tc.shards); err == nil {
			t.Errorf("Stripe(id=%d, shards=%d) succeeded, want error", tc.id, tc.shards)
		}
	}
}

func TestStripeSingleShardIsIdentity(t *testing.T) {
	db := stripeDB(t, 50)
	striped, err := Stripe(db, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if striped.NumRows() != db.NumRows() {
		t.Fatalf("1-way stripe has %d rows, want %d", striped.NumRows(), db.NumRows())
	}
}

// starDB is a star schema with two dimension tables and an awkward row
// count: a skewed fact category and integer measure, and per dimension a
// skewed string and an integer, so exact merges are bit-identical and a
// small group family has rare groups to keep on either side of the join.
func starDB(t *testing.T, rows int) *engine.Database {
	t.Helper()
	rng := randx.New(23)
	zipf := func(card int) func() int {
		z := randx.NewZipf(1.5, card)
		return func() int { return z.Index(rng.Float64()) }
	}
	dim := func(name string, n, card int) *engine.Table {
		s, k := engine.NewColumn(name+"_kind", engine.String), engine.NewColumn(name+"_size", engine.Int)
		tbl := engine.NewTable(name, s, k)
		z := zipf(card)
		for i := 0; i < n; i++ {
			s.AppendString(fmt.Sprintf("%s_%d", name, z()))
			k.AppendInt(int64(i%4 + 1))
			tbl.EndRow()
		}
		return tbl
	}
	prod, store := dim("prod", 37, 12), dim("store", 11, 5)
	cat, qty := engine.NewColumn("cat", engine.String), engine.NewColumn("qty", engine.Int)
	fkProd, fkStore := engine.NewColumn("prod_fk", engine.Int), engine.NewColumn("store_fk", engine.Int)
	fact := engine.NewTable("lines", cat, qty, fkProd, fkStore)
	zc, zp, zs := zipf(40), zipf(prod.NumRows()), zipf(store.NumRows())
	for i := 0; i < rows; i++ {
		cat.AppendString(fmt.Sprintf("c%d", zc()))
		qty.AppendInt(int64(rng.Intn(50) + 1))
		fkProd.AppendInt(int64(zp()))
		fkStore.AppendInt(int64(zs()))
		fact.EndRow()
	}
	return engine.MustNewDatabase("stardb", fact,
		engine.DimJoin{Table: prod, FK: "prod_fk"}, engine.DimJoin{Table: store, FK: "store_fk"})
}

// TestStripeStarSchema: a stripe of a star schema is a fact slice of it. Its
// fact table holds the fact columns and foreign keys only, it joins the
// base's own dimension tables, the stripes' merged exact answers are the
// whole database's bit for bit, and a small group family built over a stripe
// answers byte for byte as one built over the stripe's flat form.
func TestStripeStarSchema(t *testing.T) {
	const rows = 4099
	db := starDB(t, rows)
	queries := []*engine.Query{
		{GroupBy: []string{"prod_kind", "store_kind"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "qty"}}},
		{GroupBy: []string{"cat"}, Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "prod_size"}, {Kind: engine.Count}}},
		{GroupBy: []string{"cat", "store_size"}, Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "qty"}},
			Where: []engine.Predicate{engine.NewIn("prod_kind", engine.StringVal("prod_0"), engine.StringVal("prod_1"))}},
	}
	wire := func(r *engine.Result) string {
		b, err := json.Marshal(r.Wire())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, shards := range []int{1, 2, 3, 7} {
		merged := make([]*engine.Result, len(queries))
		for i, q := range queries {
			merged[i] = engine.NewResult(q.GroupBy, q.Aggs)
		}
		for id := 0; id < shards; id++ {
			stripe, err := Stripe(db, id, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripe.Fact.ColumnNames(), db.Fact.ColumnNames(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d id=%d: the stripe's fact table holds %v, want the fact columns %v", shards, id, got, want)
			}
			if len(stripe.Dims) != len(db.Dims) {
				t.Fatalf("shards=%d id=%d: %d dimension tables, want %d", shards, id, len(stripe.Dims), len(db.Dims))
			}
			for d, dj := range db.Dims {
				if stripe.Dims[d] != dj {
					t.Fatalf("shards=%d id=%d: dimension %d is not the base's %q", shards, id, d, dj.Table.Name)
				}
			}
			for i, q := range queries {
				part, err := engine.ExecuteExact(stripe, q)
				if err != nil {
					t.Fatal(err)
				}
				if err := merged[i].Merge(part); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, q := range queries {
			whole, err := engine.ExecuteExact(db, q)
			if err != nil {
				t.Fatal(err)
			}
			// Partials merge in stripe order, so compare the groups, not
			// their order.
			if merged[i].NumGroups() != whole.NumGroups() {
				t.Fatalf("shards=%d %s: merged %d groups, whole %d", shards, q, merged[i].NumGroups(), whole.NumGroups())
			}
			for _, k := range whole.Keys() {
				w, m := whole.Group(k), merged[i].Group(k)
				if m == nil || m.RawRows != w.RawRows || !reflect.DeepEqual(m.Vals, w.Vals) || !reflect.DeepEqual(m.RawSum, w.RawSum) {
					t.Fatalf("shards=%d %s group %v: merged %+v, whole %+v", shards, q, w.Key, m, w)
				}
			}
		}
	}

	// A family over a stripe against one over the same rows flattened.
	stripe, err := Stripe(db, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	star := newSystemWorkers(t, stripe, 2)
	flat := newSystemWorkers(t, engine.MustNewDatabase(db.Name, stripe.Flat(db.Name)), 2)
	name := star.Strategies()[0]
	for _, q := range queries {
		a, err := star.Approx(name, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := flat.Approx(name, q)
		if err != nil {
			t.Fatal(err)
		}
		if wire(a.Result) != wire(b.Result) || a.RowsRead != b.RowsRead || !reflect.DeepEqual(a.Intervals, b.Intervals) {
			t.Fatalf("%s: the family over the stripe answers\n%s\nover its flat form\n%s", q, wire(a.Result), wire(b.Result))
		}
	}
}
