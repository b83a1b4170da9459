package uniform

import (
	"math"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// testDB returns a single-table database: column g uniform over 10 values,
// column m = 1 for every row (so SUM(m) == COUNT).
func testDB(n int) *engine.Database {
	g := engine.NewColumn("g", engine.Int)
	m := engine.NewColumn("m", engine.Int)
	fact := engine.NewTable("fact", g, m)
	rng := randx.New(99)
	for i := 0; i < n; i++ {
		g.AppendInt(int64(rng.Intn(10)))
		m.AppendInt(1)
		fact.EndRow()
	}
	return engine.MustNewDatabase("t", fact)
}

func TestPreprocessSizeAndScale(t *testing.T) {
	db := testDB(10000)
	p, err := New(Config{Rate: 0.02, Seed: 1}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleRows() != 200 {
		t.Errorf("sample rows = %d, want 200", p.SampleRows())
	}
	if p.SampleBytes() <= 0 {
		t.Error("sample bytes not positive")
	}
}

func TestAnswerUnbiased(t *testing.T) {
	db := testDB(20000)
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	exact, err := engine.ExecuteExact(db, q)
	if err != nil {
		t.Fatal(err)
	}
	key := engine.EncodeKey([]engine.Value{engine.IntVal(3)})
	truth := exact.Group(key).Vals[0]
	var sum float64
	const trials = 50
	for seed := int64(0); seed < trials; seed++ {
		p, err := New(Config{Rate: 0.05, Seed: seed}).Preprocess(db)
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
	if math.Abs(mean-truth)/truth > 0.05 {
		t.Errorf("mean estimate %g vs truth %g", mean, truth)
	}
}

func TestRateOneIsExact(t *testing.T) {
	db := testDB(3000)
	p, err := New(Config{Rate: 1, Seed: 2}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}
	exact, _ := engine.ExecuteExact(db, q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range exact.Keys() {
		eg, ag := exact.Group(k), ans.Result.Group(k)
		if ag == nil {
			t.Fatalf("missing group %v", eg.Key)
		}
		for i := range eg.Vals {
			if math.Abs(eg.Vals[i]-ag.Vals[i]) > 1e-9 {
				t.Errorf("group %v agg %d: %g vs %g", eg.Key, i, eg.Vals[i], ag.Vals[i])
			}
		}
	}
}

func TestIntervalsPresent(t *testing.T) {
	db := testDB(10000)
	p, err := New(Config{Rate: 0.05, Seed: 3}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"g"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ans.Result.Keys() {
		iv := ans.Interval(k, 0)
		if iv.Width() <= 0 {
			t.Errorf("group %v has degenerate CI %+v", ans.Result.Group(k).Key, iv)
		}
		if iv.Lo < 0 {
			t.Errorf("COUNT CI lower bound negative: %+v", iv)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	db := testDB(100)
	for _, rate := range []float64{0, -0.5, 1.1} {
		if _, err := New(Config{Rate: rate}).Preprocess(db); err == nil {
			t.Errorf("rate %g not rejected", rate)
		}
	}
}

func TestNameAndLabel(t *testing.T) {
	if got := New(Config{}).Name(); got != "uniform" {
		t.Errorf("Name = %q", got)
	}
}

func TestTinyRateStillSamples(t *testing.T) {
	db := testDB(100)
	p, err := New(Config{Rate: 0.001, Seed: 4}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleRows() < 1 {
		t.Error("sample is empty")
	}
}

func TestEmptyDatabaseRejected(t *testing.T) {
	db := engine.MustNewDatabase("empty", engine.NewTable("f", engine.NewColumn("g", engine.Int)))
	if _, err := New(Config{Rate: 0.1}).Preprocess(db); err == nil {
		t.Error("empty database not rejected")
	}
}
