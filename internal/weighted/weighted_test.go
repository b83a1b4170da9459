package weighted_test

import (
	"math"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/randx"
	"dynsample/internal/sqlparse"
	"dynsample/internal/weighted"
)

// regionsDB: column region with one huge region and several small ones, and
// a measure.
func regionsDB(n int) *engine.Database {
	region := engine.NewColumn("region", engine.String)
	m := engine.NewColumn("m", engine.Int)
	fact := engine.NewTable("fact", region, m)
	rng := randx.New(17)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < 0.90:
			region.AppendString("big")
		case r < 0.96:
			region.AppendString("mid")
		default:
			region.AppendString("nw" + string(rune('0'+rng.Intn(4))))
		}
		m.AppendInt(int64(rng.Intn(50)) + 1)
		fact.EndRow()
	}
	return engine.MustNewDatabase("regions", fact)
}

// trainingWorkload focuses on the small north-west regions.
func trainingWorkload() []string {
	var w []string
	for i := 0; i < 4; i++ {
		w = append(w, "SELECT region, COUNT(*) FROM T WHERE region IN ('nw0', 'nw1', 'nw2', 'nw3') GROUP BY region")
	}
	return w
}

// preprocess builds the weighted baseline: a family with nothing in S over
// the weighted selector, at the selector's rate.
func preprocess(db *engine.Database, cfg weighted.Config) (core.Prepared, error) {
	return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: cfg.Rate, Columns: []string{}, Overall: cfg}).Preprocess(db)
}

// uniform builds the uniform baseline at rate, its reservoir drawn with seed.
func uniform(db *engine.Database, rate float64, seed int64) (core.Prepared, error) {
	return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate, Columns: []string{}, Seed: seed}).Preprocess(db)
}

func TestExpectedSampleSizeMatchesBudget(t *testing.T) {
	db := regionsDB(30000)
	p, err := preprocess(db, weighted.Config{Rate: 0.02, Workload: trainingWorkload(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(p.SampleRows())
	want := 0.02 * 30000
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("sample rows %g, want ~%g", got, want)
	}
}

func TestWorkloadFootprintBeatsUniform(t *testing.T) {
	db := regionsDB(30000)
	workload := trainingWorkload()
	wp, err := preprocess(db, weighted.Config{Rate: 0.01, Workload: workload, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	up, err := uniform(db, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on a query drawn from the workload distribution.
	stmt, err := sqlparse.Parse(workload[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := sqlparse.Compile(stmt, db)
	if err != nil {
		t.Fatal(err)
	}
	q := c.Query
	exact, _ := engine.ExecuteExact(db, q)
	var wErr, uErr float64
	const trials = 25
	for seed := int64(0); seed < trials; seed++ {
		wpS, err := preprocess(db, weighted.Config{Rate: 0.01, Workload: workload, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		upS, err := uniform(db, 0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		wa, _ := wpS.Answer(q)
		ua, _ := upS.Answer(q)
		aw, _ := metrics.Compare(exact, wa.Result, 0)
		au, _ := metrics.Compare(exact, ua.Result, 0)
		wErr += aw.RelErr
		uErr += au.RelErr
	}
	if wErr >= uErr {
		t.Errorf("weighted RelErr %.4f not better than uniform %.4f on in-workload query", wErr/trials, uErr/trials)
	}
	_ = wp
	_ = up
}

func TestEstimatesUnbiasedOffWorkload(t *testing.T) {
	// Horvitz-Thompson weighting must stay unbiased even for queries the
	// workload never touches.
	db := regionsDB(20000)
	q := &engine.Query{GroupBy: []string{"region"}, Aggs: []engine.Aggregate{{Kind: engine.Sum, Col: "m"}}}
	exact, _ := engine.ExecuteExact(db, q)
	key := engine.EncodeKey([]engine.Value{engine.StringVal("big")})
	truth := exact.Group(key).Vals[0]
	var sum float64
	const trials = 50
	for seed := int64(0); seed < trials; seed++ {
		p, err := preprocess(db, weighted.Config{Rate: 0.03, Workload: trainingWorkload(), Seed: seed})
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
		t.Errorf("mean estimate %g vs truth %g", mean, truth)
	}
}

func TestValidation(t *testing.T) {
	db := regionsDB(100)
	if _, err := preprocess(db, weighted.Config{Rate: 0, Workload: trainingWorkload()}); err == nil {
		t.Error("rate 0 not rejected")
	}
	if _, err := preprocess(db, weighted.Config{Rate: 0.1}); err == nil {
		t.Error("empty workload not rejected")
	}
	bad := []string{"SELECT zzz, COUNT(*) FROM T GROUP BY zzz"}
	if _, err := preprocess(db, weighted.Config{Rate: 0.1, Workload: bad}); err == nil {
		t.Error("invalid workload query not rejected")
	}
	for _, smoothing := range []float64{-0.5, math.NaN()} {
		if _, err := preprocess(db, weighted.Config{Rate: 0.1, Workload: trainingWorkload(), Smoothing: smoothing}); err == nil {
			t.Errorf("smoothing %g not rejected", smoothing)
		}
	}
	empty := engine.MustNewDatabase("e", engine.NewTable("f", engine.NewColumn("region", engine.String)))
	if _, err := preprocess(empty, weighted.Config{Rate: 0.1, Workload: trainingWorkload()}); err == nil {
		t.Error("empty database not rejected")
	}
}

// TestSelectorRefusesAnotherRate: plugged into small group sampling, the
// selector draws at the base rate, so a Rate that says otherwise is refused
// rather than ignored.
func TestSelectorRefusesAnotherRate(t *testing.T) {
	db := regionsDB(1000)
	for _, rate := range []float64{0, 0.02} {
		if _, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Overall: weighted.Config{Rate: rate, Workload: trainingWorkload()}}).Preprocess(db); err != nil {
			t.Errorf("rate %g: %v", rate, err)
		}
	}
	if _, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Overall: weighted.Config{Rate: 0.1, Workload: trainingWorkload()}}).Preprocess(db); err == nil {
		t.Error("rate 0.1 at base rate 0.02 not refused")
	}
}

func TestName(t *testing.T) {
	if core.NewSmallGroup(core.SmallGroupConfig{Columns: []string{}, Overall: weighted.Config{}}).Name() != "weighted" {
		t.Error("Name wrong")
	}
}
