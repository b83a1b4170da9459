package congress

import (
	"math"
	"testing"

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

func TestBasicCongressCoversSmallGroups(t *testing.T) {
	db := skewDB(20000)
	p, err := New(Config{Rate: 0.02, Columns: []string{"g"}, Seed: 1}).Preprocess(db)
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
	p, err := New(Config{Rate: 0.02, Columns: []string{"g"}, Seed: 2}).Preprocess(db)
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
	p, err := New(Config{Rate: 0.02, Columns: []string{"g"}, Seed: 3}).Preprocess(db)
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
	p, err := New(Config{Rate: 1, Columns: []string{"g", "h"}, Seed: 4}).Preprocess(db)
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
	cols := make([]string, 0, MaxFullColumns+1)
	for i := 0; i <= MaxFullColumns; i++ {
		cols = append(cols, "g")
	}
	if _, err := New(Config{Rate: 0.1, Columns: cols, Variant: Full}).Preprocess(db); err == nil {
		t.Error("full congress over too many columns not rejected")
	}
}

func TestFullCongressRuns(t *testing.T) {
	db := skewDB(5000)
	p, err := New(Config{Rate: 0.05, Columns: []string{"g", "h"}, Variant: Full, Seed: 5}).Preprocess(db)
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

func TestCandidateColumnDefaults(t *testing.T) {
	// u has too many distinct values and must be excluded from the default
	// candidate set.
	g := engine.NewColumn("g", engine.Int)
	u := engine.NewColumn("u", engine.Int)
	fact := engine.NewTable("fact", g, u)
	for i := 0; i < 500; i++ {
		g.AppendInt(int64(i % 3))
		u.AppendInt(int64(i))
		fact.EndRow()
	}
	db := engine.MustNewDatabase("d", fact)
	cols, err := candidateColumns(db, Config{DistinctLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "g" {
		t.Errorf("candidates = %v, want [g]", cols)
	}
}

func TestConfigValidation(t *testing.T) {
	db := skewDB(100)
	if _, err := New(Config{Rate: 0}).Preprocess(db); err == nil {
		t.Error("rate 0 not rejected")
	}
	if _, err := New(Config{Rate: 0.1, Columns: []string{"nope"}}).Preprocess(db); err == nil {
		t.Error("unknown column not rejected")
	}
	if _, err := New(Config{Rate: 0.1, Variant: Variant(2)}).Preprocess(db); err == nil {
		t.Error("unknown variant not rejected")
	}
}

// TestSelectorRefusesAnotherRate: plugged into small group sampling, the
// selector draws at the base rate, so a Rate that says otherwise is refused
// rather than ignored.
func TestSelectorRefusesAnotherRate(t *testing.T) {
	db := skewDB(1000)
	for _, rate := range []float64{0, 0.02} {
		if _, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Overall: New(Config{Rate: rate})}).Preprocess(db); err != nil {
			t.Errorf("rate %g: %v", rate, err)
		}
	}
	if _, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Overall: New(Config{Rate: 0.1})}).Preprocess(db); err == nil {
		t.Error("rate 0.1 at base rate 0.02 not refused")
	}
}

func TestNames(t *testing.T) {
	if got := New(Config{}).Name(); got != "congress-basic" {
		t.Errorf("Name = %q", got)
	}
	if got := New(Config{Variant: Full}).Name(); got != "congress-full" {
		t.Errorf("full Name = %q", got)
	}
}

func TestStrataCount(t *testing.T) {
	db := skewDB(5000)
	s := New(Config{Rate: 0.05, Columns: []string{"g", "h"}, Seed: 6})
	if _, err := s.Preprocess(db); err != nil {
		t.Fatal(err)
	}
	// 10 g-values x 3 h-values = up to 30 strata.
	sc := s.StrataCount()
	if sc < 10 || sc > 30 {
		t.Errorf("strata count = %d, want within (10,30]", sc)
	}
}
