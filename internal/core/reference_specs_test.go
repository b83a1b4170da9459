package core_test

import (
	"fmt"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
	"dynsample/internal/scenario"
)

// specDB generates an embedded scenario spec at a reduced fact-table size
// and with at most 12 padding columns per table (SALES stays wider than one
// 64-bit mask word). The dimension tables keep their full size, so most of
// their rows are referenced by no fact row — the case the through-the-join
// counts must not leak values from.
func specDB(t testing.TB, name string, rows int) *engine.Database {
	t.Helper()
	spec, err := scenario.BuiltinSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.FactTable().Rows = rows
	for i := range spec.Tables {
		if pad := spec.Tables[i].Padding; pad != nil && pad.Count > 12 {
			pad.Count = 12
		}
	}
	db, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// referenceCase is one pre-processing configuration of the oracle matrix.
// online marks the configurations online maintenance supports; flat compares
// the family, flattened through its joins, with the naive flat join
// synopses instead of the naive fact slices.
type referenceCase struct {
	name   string
	cfg    core.SmallGroupConfig
	online bool
	flat   bool
}

// referenceCases builds the configuration matrix for one database. tau names
// a numeric fact column and a string dimension column whose distinct counts
// become DistinctLimit (column kept) and DistinctLimit+1 (column dropped
// mid-count).
func referenceCases(t *testing.T, db *engine.Database, subset []string, pair [2]string, tau []string) []referenceCase {
	t.Helper()
	base := core.SmallGroupConfig{BaseRate: 0.02}
	with := func(edit func(*core.SmallGroupConfig)) core.SmallGroupConfig {
		c := base
		edit(&c)
		return c
	}
	cases := []referenceCase{
		{"default", base, true, false},
		{"levels", with(func(c *core.SmallGroupConfig) {
			c.Levels = []core.HierarchyLevel{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.08, Rate: 0.25}, {MaxFraction: 0.2, Rate: 0.05}}
		}), false, false},
		{"pairs", with(func(c *core.SmallGroupConfig) { c.Pairs = [][2]string{pair} }), true, false},
		// The fact slices are the renormalized join synopses of §5.2.2: read
		// through their joins they are the flat ones.
		{"renormalize", base, false, true},
		{"bernoulli", with(func(c *core.SmallGroupConfig) { c.Overall = bernoulliOverall{} }), false, false},
		{"columns", with(func(c *core.SmallGroupConfig) { c.Columns = subset }), true, false},
	}
	for _, col := range tau {
		vcs, err := db.DistinctValues(col)
		if err != nil {
			t.Fatal(err)
		}
		for _, below := range []int{0, 1} {
			limit := len(vcs) - below
			cases = append(cases, referenceCase{
				fmt.Sprintf("tau=%s-%d", col, below),
				with(func(c *core.SmallGroupConfig) { c.DistinctLimit = limit }), true, false,
			})
		}
	}
	return cases
}

// bernoulliOverall is a weighted overall builder drawn with its own seed: a
// coin per row at the base rate for even rows and half of it for odd ones,
// every kept row at its coin's inverse rate. It emits the last row first, so
// pre-processing has to sort the selection, each weight with its row. It
// holds the cfg.Overall branch of pre-processing, which every baseline but
// uniform sampling uses, to the naive algorithm.
type bernoulliOverall struct{ seed int64 }

func (b bernoulliOverall) BuildOverall(db *engine.Database, rate float64) (rows []int, weights []float64, err error) {
	rng := randx.New(b.seed)
	for r := db.NumRows() - 1; r >= 0; r-- {
		if p := rate / float64(1+r%2); rng.Float64() < p {
			rows, weights = append(rows, r), append(weights, 1/p)
		}
	}
	return rows, weights, nil
}

// TestKernelMatchesNaiveOnSpecs is the oracle for the typed, join-aware
// pre-processing kernel: over the embedded specs × every configuration
// family × worker counts × seeds, the sample family must be byte-identical
// to the row-at-a-time algorithm's, and the online tracking state seeded
// from it must equal the old seeding loops'.
func TestKernelMatchesNaiveOnSpecs(t *testing.T) {
	dbs := []struct {
		name   string
		rows   int
		subset []string
		pair   [2]string
		tau    []string
	}{
		{"tpch", 12000, []string{"l_shipdate", "p_brand", "o_clerk", "l_extendedprice", "s_acctbal_bucket"},
			[2]string{"l_shipmode", "p_brand"}, []string{"l_shipdate", "o_clerk"}},
		{"sales", 3000, []string{"units", "product_brand", "store_state", "sale_amount", "order_type"},
			[2]string{"order_type", "store_region"}, []string{"units", "product_brand"}},
	}
	for _, d := range dbs {
		db := specDB(t, d.name, d.rows)
		for _, rc := range referenceCases(t, db, d.subset, d.pair, d.tau) {
			for _, seed := range []int64{1, 2, 3} {
				cfg := rc.cfg
				cfg.Seed = seed
				if cfg.Overall != nil {
					cfg.Overall = bernoulliOverall{seed: seed + 1} // one selection per seed
				}
				t.Run(fmt.Sprintf("%s/%s/seed=%d", d.name, rc.name, seed), func(t *testing.T) {
					core.AssertPreprocessMatchesNaive(t, db, cfg, rc.flat, 0, 1, 4)
				})
			}
			if rc.online {
				t.Run(fmt.Sprintf("%s/%s/online", d.name, rc.name), func(t *testing.T) {
					core.AssertOnlineSeedMatchesNaive(t, db, rc.cfg, 0)
					// A cap below some column's rare-value count saturates it.
					core.AssertOnlineSeedMatchesNaive(t, db, rc.cfg, 3)
				})
			}
		}
	}
}

// TestOnlineClassifierMatchesNaiveOnSpecs is the oracle for online
// maintenance's classifier, scan 2's mask path grown with the data: over the
// embedded specs × the configurations online maintenance supports × a fresh
// and a saved-and-loaded family, ingesting through Apply and a Rebase must
// give the mask words, sample family and tracking state of the per-row loop
// it replaced. Each run ingests into a database of its own.
func TestOnlineClassifierMatchesNaiveOnSpecs(t *testing.T) {
	dbs := []struct {
		name   string
		rows   int
		subset []string
		pair   [2]string
		tau    []string
	}{
		{"tpch", 12000, []string{"l_shipdate", "p_brand", "o_clerk", "l_extendedprice", "s_acctbal_bucket"},
			[2]string{"l_shipmode", "p_brand"}, []string{"l_shipdate", "o_clerk"}},
		{"sales", 3000, []string{"units", "product_brand", "store_state", "sale_amount", "order_type"},
			[2]string{"order_type", "store_region"}, []string{"units", "product_brand"}},
	}
	for _, d := range dbs {
		for _, rc := range referenceCases(t, specDB(t, d.name, d.rows), d.subset, d.pair, d.tau) {
			if !rc.online {
				continue
			}
			for _, restored := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/restored=%v", d.name, rc.name, restored), func(t *testing.T) {
					core.AssertOnlineClassifyMatchesNaive(t, specDB(t, d.name, d.rows), rc.cfg, restored)
				})
			}
		}
	}
}

// BenchmarkPreprocessLayers times the pre-processing phases and the online
// seeding one by one on the embedded tpch spec at 200k fact rows (fixed
// seeds). scripts/bench.sh records it in BENCH_preprocess.json.
func BenchmarkPreprocessLayers(b *testing.B) {
	core.RunPreprocessLayers(b, specDB(b, "tpch", 200_000))
}
