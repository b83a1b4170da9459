package experiments

import (
	"fmt"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/scenario"
	"dynsample/internal/workload"
)

// AllocationRatio is γ = t/r = 0.5 throughout §5, as recommended by §4.4.
const AllocationRatio = 0.5

// Scale controls the size of every experiment so the suite can run anywhere
// from unit-test speed to paper scale. The zero value is filled with the
// defaults below.
type Scale struct {
	// TPCHSF1Rows is the fact-row count standing in for the paper's 1 GB
	// TPC-H databases (default 1,200,000: the benchmark's 6M rows per SF,
	// scaled 5x down).
	TPCHSF1Rows int
	// TPCHSF5Rows stands in for the 5 GB databases used by the performance
	// experiments (default 2,400,000 for the paper's ~30M).
	TPCHSF5Rows int
	// SalesRows is the SALES fact size (default 400,000 for the paper's 800k).
	SalesRows int
	// QueriesPerConfig is the number of random queries per parameter setting
	// (default 20, as in §5.2.3).
	QueriesPerConfig int
	// BaseRate is r (default 0.01, the paper's headline setting).
	BaseRate float64
	// Seed drives data generation, pre-processing and workloads.
	Seed int64
}

func (s Scale) withDefaults() Scale {
	if s.TPCHSF1Rows == 0 {
		s.TPCHSF1Rows = 1200000
	}
	if s.TPCHSF5Rows == 0 {
		s.TPCHSF5Rows = 2400000
	}
	if s.SalesRows == 0 {
		s.SalesRows = 400000
	}
	if s.QueriesPerConfig == 0 {
		s.QueriesPerConfig = 20
	}
	if s.BaseRate == 0 {
		s.BaseRate = 0.01
	}
	return s
}

// Runner executes experiments, caching generated databases, pre-processed
// sample sets and exact answers across figures.
type Runner struct {
	Scale Scale

	dbs    map[string]*engine.Database // key: builtin name, z, rows
	preps  map[cacheKey]core.Prepared
	exacts map[cacheKey]*engine.Result // key: the query text
}

// cacheKey keys a cache by the database itself, not by its name: every z of
// the tpch spec generates a database named TPCH1G2.0z.
type cacheKey struct {
	db  *engine.Database
	key string
}

// NewRunner returns a runner at the given scale.
func NewRunner(sc Scale) *Runner {
	return &Runner{
		Scale:  sc.withDefaults(),
		dbs:    make(map[string]*engine.Database),
		preps:  make(map[cacheKey]core.Prepared),
		exacts: make(map[cacheKey]*engine.Result),
	}
}

// salesZ is SALES' skew, its spec's own: moderate, "relatively less skewed
// than ... TPCH1G2.0z".
const salesZ = 1.2

// database returns (generating on first use) the builtin database name —
// "tpch" or "sales" — with rows fact rows and every zipf column at skew z.
func (r *Runner) database(name string, z float64, rows int) (*engine.Database, error) {
	key := fmt.Sprintf("%s/z=%.2f/rows=%d", name, z, rows)
	if db, ok := r.dbs[key]; ok {
		return db, nil
	}
	db, err := scenario.Builtin(name, rows, z, r.Scale.Seed+int64(z*1000))
	if err != nil {
		return nil, err
	}
	r.dbs[key] = db
	return db, nil
}

// exact computes (and caches) the exact answer to q over db. Several figures
// replay the same workload against differently-parameterised samples; the
// ground truth is identical across them.
func (r *Runner) exact(db *engine.Database, q *engine.Query) (*engine.Result, error) {
	key := cacheKey{db, q.String()}
	if res, ok := r.exacts[key]; ok {
		return res, nil
	}
	res, err := engine.ExecuteExact(db, q)
	if err != nil {
		return nil, err
	}
	r.exacts[key] = res
	return res, nil
}

// prepared runs (and caches) a strategy's pre-processing on a database.
func (r *Runner) prepared(db *engine.Database, key string, st *core.SmallGroup) (core.Prepared, error) {
	full := cacheKey{db, key}
	if p, ok := r.preps[full]; ok {
		return p, nil
	}
	p, err := st.Preprocess(db)
	if err != nil {
		return nil, fmt.Errorf("preprocess %s on %s: %w", key, db.Name, err)
	}
	r.preps[full] = p
	return p, nil
}

// smallGroup returns the cached small group sampling state for db at rate.
func (r *Runner) smallGroup(db *engine.Database, rate float64, cols []string) (core.Prepared, error) {
	key := fmt.Sprintf("sg/r=%g/cols=%d", rate, len(cols))
	return r.prepared(db, key, core.NewSmallGroup(core.SmallGroupConfig{
		BaseRate:           rate,
		SmallGroupFraction: AllocationRatio * rate,
		Columns:            cols,
		Seed:               r.Scale.Seed + 1,
	}))
}

// uniformMatched returns the uniform sample granting the same per-query
// sample space as small group sampling with g grouping columns: rate
// (1 + γ·g)·r (§5.3.1).
func (r *Runner) uniformMatched(db *engine.Database, rate float64, g int) (core.Prepared, error) {
	u := rate * (1 + AllocationRatio*float64(g))
	if u > 1 {
		u = 1
	}
	key := fmt.Sprintf("uni/r=%g", u)
	return r.prepared(db, key, core.NewSmallGroup(core.SmallGroupConfig{BaseRate: u, Columns: []string{}, Seed: r.Scale.Seed + 2}))
}

// method is one named way of answering a query with g grouping columns.
type method struct {
	name   string
	answer func(q *engine.Query, g int) (*core.Answer, error)
}

// prepMethod answers every query from p.
func prepMethod(name string, p core.Prepared) method {
	return method{name: name, answer: func(q *engine.Query, _ int) (*core.Answer, error) { return p.Answer(q) }}
}

// uniformMethod answers each query from the uniform sample matched to its
// grouping columns (§5.3.1).
func (r *Runner) uniformMethod(db *engine.Database, rate float64) method {
	return method{name: "Uniform", answer: func(q *engine.Query, g int) (*core.Answer, error) {
		u, err := r.uniformMatched(db, rate, g)
		if err != nil {
			return nil, err
		}
		return u.Answer(q)
	}}
}

// evalQueries is the scoring loop every accuracy figure runs: each query's
// exact answer, each method's answer to it, their accuracy — and per method
// the mean over the queries whose exact answer is not empty.
func (r *Runner) evalQueries(db *engine.Database, queries []*engine.Query, methods []method) (map[string]metrics.Accuracy, error) {
	accs := make(map[string][]metrics.Accuracy, len(methods))
	for _, q := range queries {
		exact, err := r.exact(db, q)
		if err != nil {
			return nil, err
		}
		if exact.NumGroups() == 0 {
			continue
		}
		for _, m := range methods {
			ans, err := m.answer(q, len(q.GroupBy))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			acc, err := metrics.Compare(exact, ans.Result, 0)
			if err != nil {
				return nil, err
			}
			accs[m.name] = append(accs[m.name], acc)
		}
	}
	return meanPerMethod(accs), nil
}

// evalAveraged scores methods on one workload per grouping-column count in
// gs and averages each method's per-workload means.
func (r *Runner) evalAveraged(db *engine.Database, gs []int, queriesFor func(g int) ([]*engine.Query, error), methods []method) (map[string]metrics.Accuracy, error) {
	accs := map[string][]metrics.Accuracy{}
	for _, g := range gs {
		queries, err := queriesFor(g)
		if err != nil {
			return nil, err
		}
		batch, err := r.evalQueries(db, queries, methods)
		if err != nil {
			return nil, err
		}
		for name, a := range batch {
			accs[name] = append(accs[name], a)
		}
	}
	return meanPerMethod(accs), nil
}

func meanPerMethod(accs map[string][]metrics.Accuracy) map[string]metrics.Accuracy {
	out := make(map[string]metrics.Accuracy, len(accs))
	for name, list := range accs {
		out[name] = metrics.Mean(list)
	}
	return out
}

// countWorkload builds the §5.2.3 COUNT workload with g grouping columns.
func (r *Runner) countWorkload(db *engine.Database, g, seedOffset int) ([]*engine.Query, error) {
	return r.sweepWorkload(db, g, seedOffset, workload.Config{Aggregate: engine.Count})
}

// sweepWorkload builds the §5.2.3 workload with g grouping columns — 1 or 2
// predicates, alternating with g; mass selectivity — seeded at seedOffset.
// cfg gives the aggregate and any column or measure restriction.
func (r *Runner) sweepWorkload(db *engine.Database, g, seedOffset int, cfg workload.Config) ([]*engine.Query, error) {
	cfg.GroupingColumns, cfg.Predicates = g, 1+(g%2)
	cfg.MaxDistinct, cfg.MassSelectivity = core.DefaultDistinctLimit, true
	cfg.Seed = r.Scale.Seed + int64(seedOffset)
	gen, err := workload.NewGenerator(db, cfg)
	if err != nil {
		return nil, err
	}
	return gen.Queries(r.Scale.QueriesPerConfig), nil
}
