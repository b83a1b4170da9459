package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// geoSpec is the canonical correlated-schema fixture: a snowflake
// (fact → city dim → inlined region) plus a joint-correlated pair and a
// functional dependency on the fact table.
func geoSpec(rows int) *Spec {
	return &Spec{
		Name: "GEO",
		Seed: 7,
		Tables: []TableSpec{
			{
				Name: "orders", Fact: true, Rows: rows,
				Columns: []ColumnSpec{
					{Name: "city", Type: TypeString, Dist: DistSpec{Kind: DistZipf, Card: 40, Z: 1.1}},
					{Name: "region", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 6}},
					{Name: "pay", Type: TypeString, Dist: DistSpec{Kind: DistWeighted,
						Values: []any{"card", "cash"}, Weights: []float64{1, 1}}},
					{Name: "chan", Type: TypeString, Dist: DistSpec{Kind: DistWeighted,
						Values: []any{"web", "store"}, Weights: []float64{1, 1}}},
					{Name: "amount", Type: TypeFloat, Dist: DistSpec{Kind: DistLogNormal, Mu: 3, Sigma: 1}},
				},
				Correlated: []CorrelatedSpec{
					{Columns: []string{"city", "region"}, Kind: CorrFD, Determinant: "city"},
					{Columns: []string{"pay", "chan"}, Kind: CorrJoint, States: []JointState{
						{Weight: 49, Values: []any{"card", "web"}},
						{Weight: 49, Values: []any{"cash", "store"}},
						{Weight: 1, Values: []any{"card", "store"}},
						{Weight: 1, Values: []any{"cash", "web"}},
					}},
				},
				FKs: []FKSpec{{Column: "store_fk", References: "stores"}},
			},
			{
				Name: "stores", Rows: 50,
				Columns: []ColumnSpec{
					{Name: "store_format", Type: TypeString, Dist: DistSpec{Kind: DistZipf, Card: 5, Z: 1, TailMass: 0.1}},
				},
				FKs: []FKSpec{{References: "districts"}},
			},
			{
				Name: "districts", Rows: 8,
				Columns: []ColumnSpec{
					{Name: "district_name", Type: TypeString, Dist: DistSpec{Kind: DistUniform, Card: 8}},
				},
			},
		},
	}
}

func TestGenerateStarSchemaShape(t *testing.T) {
	db, err := Generate(geoSpec(2000))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumRows() != 2000 {
		t.Fatalf("fact rows = %d, want 2000", db.NumRows())
	}
	if len(db.Dims) != 1 || db.Dims[0].Table.Name != "stores" {
		t.Fatalf("dims = %+v, want one stores dim", db.Dims)
	}
	// The snowflake inline: districts' column rides inside the stores dim and
	// is visible in the view; no districts table survives as a dim.
	for _, col := range []string{"city", "region", "pay", "chan", "amount", "store_format", "district_name"} {
		if !db.HasColumn(col) {
			t.Errorf("view missing column %q", col)
		}
	}
	if db.HasColumn("store_fk") {
		t.Error("physical FK column leaked into the view")
	}
	if db.Dims[0].Table.NumRows() != 50 {
		t.Errorf("stores rows = %d, want 50", db.Dims[0].Table.NumRows())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(geoSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(geoSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range a.Columns() {
		accA, _ := a.Accessor(col)
		accB, _ := b.Accessor(col)
		for row := 0; row < a.NumRows(); row++ {
			if accA.Value(row) != accB.Value(row) {
				t.Fatalf("column %q row %d differs across identical runs: %v vs %v",
					col, row, accA.Value(row), accB.Value(row))
			}
		}
	}
}

func TestGenerateFunctionalDependencyHolds(t *testing.T) {
	db, err := Generate(geoSpec(3000))
	if err != nil {
		t.Fatal(err)
	}
	city, _ := db.Accessor("city")
	region, _ := db.Accessor("region")
	seen := map[engine.Value]engine.Value{}
	for row := 0; row < db.NumRows(); row++ {
		c, r := city.Value(row), region.Value(row)
		if prev, ok := seen[c]; ok {
			if prev != r {
				t.Fatalf("city %v maps to both %v and %v: functional dependency broken", c, prev, r)
			}
		} else {
			seen[c] = r
		}
	}
	// The dependency must not be trivial: multiple cities and more than one
	// region must actually occur.
	regions := map[engine.Value]bool{}
	for _, r := range seen {
		regions[r] = true
	}
	if len(seen) < 10 || len(regions) < 2 {
		t.Fatalf("degenerate fd: %d cities, %d regions", len(seen), len(regions))
	}
}

func TestGenerateFDNoiseBreaksDependency(t *testing.T) {
	s := geoSpec(3000)
	s.Tables[0].Correlated[0].Noise = 0.3
	db, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	city, _ := db.Accessor("city")
	region, _ := db.Accessor("region")
	pairs := map[engine.Value]map[engine.Value]bool{}
	for row := 0; row < db.NumRows(); row++ {
		c := city.Value(row)
		if pairs[c] == nil {
			pairs[c] = map[engine.Value]bool{}
		}
		pairs[c][region.Value(row)] = true
	}
	multi := 0
	for _, rs := range pairs {
		if len(rs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("noise 0.3 produced a perfect dependency; want some cities with several regions")
	}
}

func TestGenerateJointDistributionFrequencies(t *testing.T) {
	db, err := Generate(geoSpec(20000))
	if err != nil {
		t.Fatal(err)
	}
	pay, _ := db.Accessor("pay")
	ch, _ := db.Accessor("chan")
	counts := map[[2]string]int{}
	for row := 0; row < db.NumRows(); row++ {
		counts[[2]string{pay.Value(row).S, ch.Value(row).S}]++
	}
	n := float64(db.NumRows())
	want := map[[2]string]float64{
		{"card", "web"}: 0.49, {"cash", "store"}: 0.49,
		{"card", "store"}: 0.01, {"cash", "web"}: 0.01,
	}
	for k, p := range want {
		got := float64(counts[k]) / n
		if math.Abs(got-p) > 0.01+3*math.Sqrt(p*(1-p)/n) {
			t.Errorf("joint cell %v frequency %.4f, want ~%.2f", k, got, p)
		}
	}
	// The marginals look balanced even though the joint is concentrated —
	// the shape that defeats an independence assumption.
	cardFrac := float64(counts[[2]string{"card", "web"}]+counts[[2]string{"card", "store"}]) / n
	if math.Abs(cardFrac-0.5) > 0.02 {
		t.Errorf("card marginal %.3f, want ~0.5", cardFrac)
	}
}

func TestGeneratePaddingColumns(t *testing.T) {
	s := minimalSpec()
	s.Tables[0].Padding = &PaddingSpec{Count: 7, Z: 1.0, TailMass: 0.05}
	db, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		name := []string{"fact_attr00", "fact_attr01", "fact_attr02", "fact_attr03", "fact_attr04", "fact_attr05", "fact_attr06"}[i]
		if !db.HasColumn(name) {
			t.Errorf("missing padding column %q", name)
		}
	}
}

func TestGenerateNumericDistributions(t *testing.T) {
	s := &Spec{
		Name: "NUM",
		Seed: 3,
		Tables: []TableSpec{{
			Name: "f", Fact: true, Rows: 20000,
			Columns: []ColumnSpec{
				{Name: "g", Type: TypeInt, Dist: DistSpec{Kind: DistNormal, Mean: 50, Stddev: 10}},
				{Name: "v", Type: TypeFloat, Dist: DistSpec{Kind: DistNormal, Mean: -2, Stddev: 0.5}},
			},
		}},
	}
	db, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := db.Accessor("v")
	var sum float64
	for row := 0; row < db.NumRows(); row++ {
		sum += acc.Float(row)
	}
	mean := sum / float64(db.NumRows())
	if math.Abs(mean-(-2)) > 0.05 {
		t.Errorf("normal mean %.3f, want ~-2", mean)
	}
}

// A fill's panic comes back from generateRows as the error, and stops the
// drawing within a few blocks.
func TestGenerateRowsFillPanicIsError(t *testing.T) {
	const rows = 100 * blockRows
	drawn, filled := 0, 0
	draws := []func(*rand.Rand) float64{func(rng *rand.Rand) float64 { drawn++; return rng.Float64() }}
	fills := []func([][]float64){func([][]float64) {
		if filled++; filled == 2 {
			panic("fill failed")
		}
	}}
	err := generateRows(rows, randx.New(1), nil, draws, fills)
	if err == nil || !strings.Contains(err.Error(), "fill failed") {
		t.Fatalf("generateRows returned %v, want the fill's panic", err)
	}
	if drawn > (ringBlocks+2)*blockRows {
		t.Errorf("drew %d rows after a fill failed in the second block", drawn)
	}
}

// BenchmarkGenerate builds the benchmark's base data: the tpch spec at 1 M
// fact rows. B/op is the storage the generator filled plus whatever it
// re-allocated on the way there.
func BenchmarkGenerate(b *testing.B) {
	spec, err := BuiltinSpec("tpch")
	if err != nil {
		b.Fatal(err)
	}
	spec.FactTable().Rows = 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		if db.NumRows() != spec.FactTable().Rows {
			b.Fatalf("%d rows generated", db.NumRows())
		}
	}
}

// TestGeneratePacksAsItGoes: a generated table is stored packed — the tpch
// fact and dimensions in under 20 bytes a fact row, where unpacked columns
// take 88 — and was never held unpacked on the way: generating 1 M rows
// allocates less in total than the unpacked columns alone would (the 90 MB
// an unpacked generator allocates), which a pack-afterwards pass cannot do.
func TestGeneratePacksAsItGoes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 1M rows")
	}
	spec, err := BuiltinSpec("tpch")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1_000_000
	spec.FactTable().Rows = rows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := Generate(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	stored, logical, allocated := db.StoredBytes(), db.TotalBytes(), after.TotalAlloc-before.TotalAlloc
	t.Logf("%d rows: %.1f B/row stored, %.1f logical, %.1f allocated while generating",
		rows, float64(stored)/rows, float64(logical)/rows, float64(allocated)/rows)
	if stored > 20*rows {
		t.Errorf("the base data holds %.1f bytes a row, want <= 20", float64(stored)/rows)
	}
	if allocated >= 90e6 {
		t.Errorf("Generate allocated %d bytes in total, want under the 90 MB of unpacked columns", allocated)
	}
}

// TestGenerateGolden pins the generated bytes: the SHA-256 of WriteBinary over
// the fact table and then each dimension, recorded before Generate appended
// typed values instead of boxed ones. Same spec and seed, same database —
// dictionary order (first appearance) included.
func TestGenerateGolden(t *testing.T) {
	tpch, err := BuiltinSpec("tpch")
	if err != nil {
		t.Fatal(err)
	}
	tpch.FactTable().Rows = 10_000
	_, geo, err := LoadCase("../../scenarios/cases/geo_correlated")
	if err != nil {
		t.Fatal(err)
	}
	_, snow, err := LoadCase("../../scenarios/cases/snowflake_inline")
	if err != nil {
		t.Fatal(err)
	}
	snow.FactTable().Rows = 10_000
	noisy := geoSpec(5000) // a noisy functional dependency, a joint pair, an inlined parent
	noisy.Tables[0].Correlated[0].Noise = 0.2
	for _, tc := range []struct {
		name string
		spec *Spec
		want string
	}{
		{"tpch", tpch, "42ef38c49101923c9f6cf88b233d32c776107a630e07f3254285a86de5df5080"},
		{"geo_correlated", geo, "6d38436e58f703e845b28afcc53bc3ecd4d0c82a5113e68bbb88ae8aea10383e"},
		{"snowflake_inline", snow, "f9607469cd8b87b508609da5d79007ee4a9aaf6acec5ce153808d096f4805c19"},
		{"noisy_fd", noisy, "b44f09e517744b6b63960970f9845b52725af32ddbbe590ae9e7061b255543d5"},
	} {
		db, err := Generate(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		for _, tbl := range append([]*engine.Table{db.Fact}, dimTables(db)...) {
			if err := engine.WriteBinary(tbl, h); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: generated database hashes to %s, want %s", tc.name, got, tc.want)
		}
	}
}

func dimTables(db *engine.Database) []*engine.Table {
	out := make([]*engine.Table, len(db.Dims))
	for i, d := range db.Dims {
		out[i] = d.Table
	}
	return out
}

// TestGenerateTPCHAt50kRows pins the builtin tpch spec at 50 000 fact rows:
// the SHA-256 of the fact rows through the join (WriteRowsBinary) and then of
// each dimension table, recorded before Zipf and Categorical drew through a
// guide table. Every draw is an inverse CDF, so a faster one must land on
// the same index for every variate.
func TestGenerateTPCHAt50kRows(t *testing.T) {
	spec, err := BuiltinSpec("tpch")
	if err != nil {
		t.Fatal(err)
	}
	spec.FactTable().Rows = 50_000
	db, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := db.WriteRowsBinary(h, "tpch", 0, db.NumRows()); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range dimTables(db) {
		if err := engine.WriteBinary(tbl, h); err != nil {
			t.Fatal(err)
		}
	}
	const want = "d8e285a625b42fb5d6d24111485a955e36249e57f73974bf7f84e0286045a4f6"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("tpch at 50 000 rows hashes to %s, want %s", got, want)
	}
}
