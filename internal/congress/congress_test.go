package congress_test

import (
	"math"
	"testing"

	"dynsample/internal/congress"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// skewDB builds a table with a heavily skewed grouping column: value 0 holds
// ~97% of rows, values 1..9 share the rest.
func skewDB(n int) *engine.Database {
	g := engine.NewColumn("g", engine.Int)
	h := engine.NewColumn("h", engine.Int)
	fact := engine.NewTable("fact", g, h)
	rng := randx.New(5)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.97 {
			g.AppendInt(0)
		} else {
			g.AppendInt(int64(1 + rng.Intn(9)))
		}
		h.AppendInt(int64(rng.Intn(3)))
		fact.EndRow()
	}
	return engine.MustNewDatabase("skew", fact)
}

// preprocess builds the congress baseline: a family with nothing in S over
// the congress selector, whose base rate is rate.
func preprocess(db *engine.Database, rate float64, cfg congress.Config) (core.Prepared, error) {
	return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate, Columns: []string{}, Overall: cfg}).Preprocess(db)
}

func TestBasicCongressCoversSmallGroups(t *testing.T) {
	db := skewDB(20000)
	p, err := preprocess(db, 0.02, congress.Config{Columns: []string{"g"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// The senate share guarantees every stratum gets sampled, so no group of
	// the single-column grouping should be missed.
	for _, k := range exact.Keys() {
		if ans.Result.Group(k) == nil {
			t.Errorf("group %v missed by basic congress", exact.Group(k).Key)
		}
	}
}

func TestWeightsReconstructTotal(t *testing.T) {
	db := skewDB(20000)
	p, err := preprocess(db, 0.02, congress.Config{Columns: []string{"g"}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	total := ans.Result.Group(engine.EncodeKey(nil)).Vals[0]
	if math.Abs(total-20000)/20000 > 0.05 {
		t.Errorf("weighted total %g, want ~20000", total)
	}
}

func TestPerStratumEstimatesExactForFullySampledStrata(t *testing.T) {
	db := skewDB(20000)
	p, err := preprocess(db, 0.02, congress.Config{Columns: []string{"g"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny strata get rate 1 (capped) and are therefore exact.
	for _, k := range exact.Keys() {
		eg := exact.Group(k)
		if eg.Key[0].I == 0 {
			continue // the huge stratum is estimated
		}
		ag := ans.Result.Group(k)
		if ag == nil {
			t.Fatalf("missing group %v", eg.Key)
		}
		rel := math.Abs(eg.Vals[0]-ag.Vals[0]) / eg.Vals[0]
		if rel > 0.5 {
			t.Errorf("group %v: rel err %.2f unexpectedly large", eg.Key, rel)
		}
	}
}

func TestRateOneIsExact(t *testing.T) {
	db := skewDB(2000)
	p, err := preprocess(db, 1, congress.Config{Columns: []string{"g", "h"}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"g", "h"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range exact.Keys() {
		eg, ag := exact.Group(k), ans.Result.Group(k)
		if ag == nil || math.Abs(eg.Vals[0]-ag.Vals[0]) > 1e-9 {
			t.Errorf("group %v: exact %g approx %+v", eg.Key, eg.Vals[0], ag)
		}
	}
}

func TestFullCongressGuard(t *testing.T) {
	db := skewDB(100)
	cols := make([]string, 0, congress.MaxFullColumns+1)
	for i := 0; i <= congress.MaxFullColumns; i++ {
		cols = append(cols, "g")
	}
	if _, err := preprocess(db, 0.1, congress.Config{Columns: cols, Variant: congress.Full}); err == nil {
		t.Error("full congress over too many columns not rejected")
	}
}

func TestFullCongressRuns(t *testing.T) {
	db := skewDB(5000)
	p, err := preprocess(db, 0.05, congress.Config{Columns: []string{"g", "h"}, Variant: congress.Full, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range exact.Keys() {
		if ans.Result.Group(k) == nil {
			t.Errorf("full congress missed group %v", exact.Group(k).Key)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	db := skewDB(100)
	if _, err := preprocess(db, 0, congress.Config{}); err == nil {
		t.Error("rate 0 not rejected")
	}
	if _, err := preprocess(db, 0.1, congress.Config{Columns: []string{"nope"}}); err == nil {
		t.Error("unknown column not rejected")
	}
	if _, err := preprocess(db, 0.1, congress.Config{Variant: congress.Variant(2)}); err == nil {
		t.Error("unknown variant not rejected")
	}
}

func TestNames(t *testing.T) {
	if got := core.NewSmallGroup(core.SmallGroupConfig{Columns: []string{}, Overall: congress.Config{}}).Name(); got != "congress-basic" {
		t.Errorf("Name = %q", got)
	}
	if got := core.NewSmallGroup(core.SmallGroupConfig{Columns: []string{}, Overall: congress.Config{Variant: congress.Full}}).Name(); got != "congress-full" {
		t.Errorf("full Name = %q", got)
	}
}

func TestStrataCount(t *testing.T) {
	db := skewDB(5000)
	sc, err := congress.Config{Columns: []string{"g", "h"}, Seed: 6}.StrataCount(db)
	if err != nil {
		t.Fatal(err)
	}
	// 10 g-values x 3 h-values = up to 30 strata.
	if sc < 10 || sc > 30 {
		t.Errorf("strata count = %d, want within (10,30]", sc)
	}
}
