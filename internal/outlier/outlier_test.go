package outlier_test

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/outlier"
	"dynsample/internal/randx"
)

// preprocess builds the outlier indexing baseline: a family with nothing in
// S over the outlier selector, whose base rate is rate.
func preprocess(db *engine.Database, rate float64, cfg outlier.Config) (core.Prepared, error) {
	return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate, Columns: []string{}, Overall: cfg}).Preprocess(db)
}

// heavyTailDB builds a table whose measure column is mostly small with a few
// huge outliers — the skewed-aggregate scenario outlier indexing targets.
func heavyTailDB(n int) *engine.Database {
	g := engine.NewColumn("g", engine.Int)
	rev := engine.NewColumn("rev", engine.Float)
	fact := engine.NewTable("fact", g, rev)
	rng := randx.New(11)
	for i := 0; i < n; i++ {
		g.AppendInt(int64(rng.Intn(5)))
		v := rng.Float64() * 10
		if rng.Float64() < 0.005 {
			v = 10000 + rng.Float64()*50000 // heavy tail
		}
		rev.AppendFloat(v)
		fact.EndRow()
	}
	return engine.MustNewDatabase("heavy", fact)
}

func varianceWithout(values []float64, removed map[int]bool) float64 {
	var sum, sumSq float64
	n := 0
	for i, v := range values {
		if removed[i] {
			continue
		}
		sum += v
		sumSq += v * v
		n++
	}
	if n == 0 {
		return 0
	}
	m := sum / float64(n)
	return sumSq/float64(n) - m*m
}

func TestSelectOutliersOptimalBruteForce(t *testing.T) {
	// Compare against exhaustive search over all k-subsets on tiny inputs.
	values := []float64{1, 2, 100, 3, 4, -50, 5}
	const k = 2
	got := outlier.SelectOutliers(values, k)
	if len(got) != k {
		t.Fatalf("selected %d outliers, want %d", len(got), k)
	}
	gotVar := varianceWithout(values, map[int]bool{got[0]: true, got[1]: true})
	best := math.Inf(1)
	for i := 0; i < len(values); i++ {
		for j := i + 1; j < len(values); j++ {
			v := varianceWithout(values, map[int]bool{i: true, j: true})
			if v < best {
				best = v
			}
		}
	}
	if gotVar > best+1e-9 {
		t.Errorf("selected outliers give variance %g, brute force best %g", gotVar, best)
	}
	// The obvious outliers are 100 and -50 (indices 2 and 5).
	if !(got[0] == 2 && got[1] == 5) {
		t.Errorf("outliers = %v, want [2 5]", got)
	}
}

func TestSelectOutliersWindowOptimalProperty(t *testing.T) {
	// For random inputs, the sliding-window choice must beat removing the k
	// largest values or the k smallest values (both are candidate windows).
	f := func(seed int64) bool {
		rng := randx.New(seed)
		values := make([]float64, 30)
		for i := range values {
			values[i] = rng.NormFloat64() * 100
		}
		const k = 4
		sel := outlier.SelectOutliers(values, k)
		removed := make(map[int]bool, k)
		for _, ix := range sel {
			removed[ix] = true
		}
		got := varianceWithout(values, removed)

		type pair struct {
			ix int
			v  float64
		}
		order := make([]pair, len(values))
		for i, v := range values {
			order[i] = pair{i, v}
		}
		for _, mode := range []string{"largest", "smallest"} {
			alt := make(map[int]bool, k)
			switch mode {
			case "largest":
				for i := 0; i < k; i++ {
					best := -1
					for j, p := range order {
						if alt[p.ix] {
							continue
						}
						if best == -1 || p.v > order[best].v {
							best = j
						}
					}
					alt[order[best].ix] = true
				}
			case "smallest":
				for i := 0; i < k; i++ {
					best := -1
					for j, p := range order {
						if alt[p.ix] {
							continue
						}
						if best == -1 || p.v < order[best].v {
							best = j
						}
					}
					alt[order[best].ix] = true
				}
			}
			if got > varianceWithout(values, alt)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSelectOutliersEdges(t *testing.T) {
	if got := outlier.SelectOutliers([]float64{1, 2, 3}, 0); got != nil {
		t.Errorf("k=0 gave %v", got)
	}
	if got := outlier.SelectOutliers([]float64{1, 2, 3}, 5); len(got) != 3 {
		t.Errorf("k>n gave %v", got)
	}
	if got := outlier.SelectOutliers(nil, 2); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
}

func TestOutlierBeatsUniformOnSkewedSum(t *testing.T) {
	// §5.3.3's headline: for SUM over a skewed measure, outlier indexing is
	// far more accurate than scaling a plain uniform sample.
	db := heavyTailDB(20000)
	q := &engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "rev"}}}
	exact, _ := engine.ExecuteExact(db, q)
	truth := exact.Group(engine.EncodeKey(nil)).Vals[0]

	var outErr, uniErr float64
	const trials = 30
	for seed := int64(0); seed < trials; seed++ {
		p, err := preprocess(db, 0.02, outlier.Config{Measure: "rev", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		outErr += math.Abs(ans.Result.Group(engine.EncodeKey(nil)).Vals[0]-truth) / truth

		// A uniform sample of the same size, for comparison.
		rows := make([]int, 0)
		rng := randx.New(seed + 1000)
		for i := 0; i < db.NumRows(); i++ {
			if rng.Float64() < 0.02 {
				rows = append(rows, i)
			}
		}
		flat := db.Flatten("u", rows, nil, nil)
		res, err := engine.ExecuteCtx(context.Background(), flat, q, engine.ExecOptions{Scale: float64(db.NumRows()) / float64(len(rows))})
		if err != nil {
			t.Fatal(err)
		}
		uniErr += math.Abs(res.Group(engine.EncodeKey(nil)).Vals[0]-truth) / truth
	}
	outErr /= trials
	uniErr /= trials
	if outErr >= uniErr {
		t.Errorf("outlier indexing rel err %.4f not better than uniform %.4f", outErr, uniErr)
	}
	if outErr > 0.05 {
		t.Errorf("outlier indexing rel err %.4f unexpectedly large", outErr)
	}
}

func TestOutlierCountsUnbiased(t *testing.T) {
	db := heavyTailDB(10000)
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, _ := engine.ExecuteExact(db, q)
	key := engine.EncodeKey([]engine.Value{engine.IntVal(2)})
	truth := exact.Group(key).Vals[0]
	var sum float64
	const trials = 40
	for seed := int64(0); seed < trials; seed++ {
		p, err := preprocess(db, 0.05, outlier.Config{Measure: "rev", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if g := ans.Result.Group(key); g != nil {
			sum += g.Vals[0]
		}
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.06 {
		t.Errorf("mean count estimate %g vs truth %g", mean, truth)
	}
}

func TestOverallBuilderPlugsIntoSmallGroup(t *testing.T) {
	db := heavyTailDB(10000)
	sg := core.NewSmallGroup(core.SmallGroupConfig{
		BaseRate:      0.02,
		DistinctLimit: 100,
		Seed:          7,
		Overall:       outlier.Config{Measure: "rev", Seed: 8},
	})
	p, err := sg.Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "rev"}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// The enhanced overall sample should estimate skewed sums well.
	for _, k := range exact.Keys() {
		eg, ag := exact.Group(k), ans.Result.Group(k)
		if ag == nil {
			t.Fatalf("missing group %v", eg.Key)
		}
		rel := math.Abs(eg.Vals[0]-ag.Vals[0]) / eg.Vals[0]
		if rel > 0.5 {
			t.Errorf("group %v rel err %.3f", eg.Key, rel)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	db := heavyTailDB(100)
	if _, err := preprocess(db, 0, outlier.Config{Measure: "rev"}); err == nil {
		t.Error("rate 0 not rejected")
	}
	if _, err := preprocess(db, 0.1, outlier.Config{Measure: "nope"}); err == nil {
		t.Error("unknown measure not rejected")
	}
}

func TestName(t *testing.T) {
	if got := core.NewSmallGroup(core.SmallGroupConfig{Columns: []string{}, Overall: outlier.Config{}}).Name(); got != "outlier" {
		t.Errorf("Name = %q", got)
	}
}
