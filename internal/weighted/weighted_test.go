package weighted

import (
	"math"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/randx"
	"dynsample/internal/uniform"
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
func trainingWorkload() []*engine.Query {
	var w []*engine.Query
	for i := 0; i < 4; i++ {
		w = append(w, &engine.Query{
			GroupBy: []string{"region"},
			Aggs:    []engine.Aggregate{{Kind: engine.Count}},
			Where: []engine.Predicate{engine.NewIn("region",
				engine.StringVal("nw0"), engine.StringVal("nw1"),
				engine.StringVal("nw2"), engine.StringVal("nw3"))},
		})
	}
	return w
}

func TestExpectedSampleSizeMatchesBudget(t *testing.T) {
	db := regionsDB(30000)
	p, err := New(Config{Rate: 0.02, Workload: trainingWorkload(), Seed: 1}).Preprocess(db)
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
	wp, err := New(Config{Rate: 0.01, Workload: workload, Seed: 2}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	up, err := uniform.New(uniform.Config{Rate: 0.01, Seed: 2}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on a query drawn from the workload distribution.
	q := workload[0]
	exact, _ := engine.ExecuteExact(db, q)
	var wErr, uErr float64
	const trials = 25
	for seed := int64(0); seed < trials; seed++ {
		wpS, err := New(Config{Rate: 0.01, Workload: workload, Seed: seed}).Preprocess(db)
		if err != nil {
			t.Fatal(err)
		}
		upS, err := uniform.New(uniform.Config{Rate: 0.01, Seed: seed}).Preprocess(db)
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
		p, err := New(Config{Rate: 0.03, Workload: trainingWorkload(), Seed: seed}).Preprocess(db)
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
	if _, err := New(Config{Rate: 0, Workload: trainingWorkload()}).Preprocess(db); err == nil {
		t.Error("rate 0 not rejected")
	}
	if _, err := New(Config{Rate: 0.1}).Preprocess(db); err == nil {
		t.Error("empty workload not rejected")
	}
	bad := []*engine.Query{{GroupBy: []string{"zzz"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}}
	if _, err := New(Config{Rate: 0.1, Workload: bad}).Preprocess(db); err == nil {
		t.Error("invalid workload query not rejected")
	}
	for _, smoothing := range []float64{-0.5, math.NaN()} {
		if _, err := New(Config{Rate: 0.1, Workload: trainingWorkload(), Smoothing: smoothing}).Preprocess(db); err == nil {
			t.Errorf("smoothing %g not rejected", smoothing)
		}
	}
	empty := engine.MustNewDatabase("e", engine.NewTable("f", engine.NewColumn("region", engine.String)))
	if _, err := New(Config{Rate: 0.1, Workload: trainingWorkload()}).Preprocess(empty); err == nil {
		t.Error("empty database not rejected")
	}
}

// TestSelectorRefusesAnotherRate: plugged into small group sampling, the
// selector draws at the base rate, so a Rate that says otherwise is refused
// rather than ignored.
func TestSelectorRefusesAnotherRate(t *testing.T) {
	db := regionsDB(1000)
	for _, rate := range []float64{0, 0.02} {
		if _, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Overall: Config{Rate: rate, Workload: trainingWorkload()}}).Preprocess(db); err != nil {
			t.Errorf("rate %g: %v", rate, err)
		}
	}
	if _, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Overall: Config{Rate: 0.1, Workload: trainingWorkload()}}).Preprocess(db); err == nil {
		t.Error("rate 0.1 at base rate 0.02 not refused")
	}
}

func TestName(t *testing.T) {
	if New(Config{}).Name() != "weighted" {
		t.Error("Name wrong")
	}
}
