// Package workload generates the random query workloads of §5.2.3:
// select-project-join queries with group-bys and COUNT/SUM aggregations over
// a star schema. Grouping columns are drawn uniformly at random from the
// database's columns (excluding near-unique columns such as row ids),
// selection predicates restrict a random column to a random subset of its
// distinct values sized between 5% and 30% of them, and SUM queries aggregate
// a randomly chosen measure column.
//
// Generation draws from a caller-supplied seeded generator and must stay on
// one goroutine for reproducibility; the produced engine.Query values are
// immutable afterwards and may be executed concurrently (the engine's scan
// kernels only read them).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// Config parameterises query generation.
type Config struct {
	// GroupingColumns is the number of group-by columns per query (the paper
	// varies 1-4).
	GroupingColumns int
	// Predicates is the number of conjunctive selection predicates (1 or 2).
	Predicates int
	// MassSelectivity calibrates predicates by row mass instead of by
	// distinct-value count. On heavily skewed data a uniformly chosen value
	// subset carries far less mass than its size suggests, so at reduced
	// data scale the literal construction starves every group; calibrating
	// by mass preserves the paper's effective query selectivity (see the
	// Figure 5 selectivity range). The target is split evenly (in the
	// geometric sense) across the query's predicates.
	MassSelectivity bool
	// Aggregate selects COUNT or SUM queries.
	Aggregate engine.AggKind
	// Measures lists the columns SUM may aggregate; required for SUM.
	Measures []string
	// MaxDistinct excludes columns with more distinct values from grouping
	// and predicates ("columns where almost every value was unique ... were
	// excluded"); zero means 1000.
	MaxDistinct int
	// Columns restricts the candidate column pool; nil means all view columns.
	Columns []string
	// Seed drives generation.
	Seed int64
}

// predFracLo and predFracHi are the paper's bounds on each predicate's size.
// With MassSelectivity false (the paper's literal construction) they bound
// the fraction of the column's distinct values kept. With MassSelectivity
// true they bound the query's total effective selectivity: values are
// accumulated until the predicate covers the target fraction of the rows.
const predFracLo, predFracHi = 0.05, 0.3

func (c Config) withDefaults() Config {
	if c.MaxDistinct == 0 {
		c.MaxDistinct = 1000
	}
	return c
}

// Generator produces random queries over one database. Construction scans
// the candidate columns once to learn their distinct values.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	cols []colInfo
}

type colInfo struct {
	name   string
	values []engine.Value // distinct values, most frequent first
	counts []int64        // occurrence counts, aligned with values
	total  int64
}

// NewGenerator builds a generator for db.
func NewGenerator(db *engine.Database, cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.GroupingColumns < 0 {
		return nil, fmt.Errorf("workload: negative grouping columns")
	}
	if cfg.Aggregate == engine.Sum && len(cfg.Measures) == 0 {
		return nil, fmt.Errorf("workload: SUM workload needs measure columns")
	}
	candidates := cfg.Columns
	if candidates == nil {
		candidates = db.Columns()
	}
	measureSet := make(map[string]bool, len(cfg.Measures))
	for _, m := range cfg.Measures {
		if !db.HasColumn(m) {
			return nil, fmt.Errorf("workload: unknown measure column %q", m)
		}
		measureSet[m] = true
	}
	g := &Generator{cfg: cfg, rng: randx.New(cfg.Seed)}
	for _, name := range candidates {
		if measureSet[name] {
			continue // measures are aggregated, not grouped or filtered
		}
		vcs, err := db.DistinctValues(name)
		if err != nil {
			return nil, err
		}
		if len(vcs) > cfg.MaxDistinct || len(vcs) < 2 {
			continue
		}
		values := make([]engine.Value, len(vcs))
		counts := make([]int64, len(vcs))
		var total int64
		for i, vc := range vcs {
			values[i] = vc.Value
			counts[i] = vc.Count
			total += vc.Count
		}
		g.cols = append(g.cols, colInfo{name: name, values: values, counts: counts, total: total})
	}
	if len(g.cols) < cfg.GroupingColumns {
		return nil, fmt.Errorf("workload: only %d eligible columns for %d grouping columns", len(g.cols), cfg.GroupingColumns)
	}
	if len(g.cols) == 0 && cfg.Predicates > 0 {
		return nil, fmt.Errorf("workload: no eligible predicate columns")
	}
	return g, nil
}

// Query generates one random query.
func (g *Generator) Query() *engine.Query {
	q := &engine.Query{}

	// Grouping columns: distinct columns chosen uniformly at random.
	perm := g.rng.Perm(len(g.cols))
	for _, ix := range perm[:g.cfg.GroupingColumns] {
		q.GroupBy = append(q.GroupBy, g.cols[ix].name)
	}

	// Aggregate.
	switch g.cfg.Aggregate {
	case engine.Count:
		q.Aggs = []engine.Aggregate{{Kind: engine.Count}}
	case engine.Sum:
		m := g.cfg.Measures[g.rng.Intn(len(g.cfg.Measures))]
		q.Aggs = []engine.Aggregate{{Kind: engine.Sum, Col: m}}
	}

	// Predicates: random column, random value subset.
	if g.cfg.MassSelectivity && g.cfg.Predicates > 0 {
		total := predFracLo + g.rng.Float64()*(predFracHi-predFracLo)
		perPred := math.Pow(total, 1/float64(g.cfg.Predicates))
		for p := 0; p < g.cfg.Predicates; p++ {
			ci := g.cols[g.rng.Intn(len(g.cols))]
			q.Where = append(q.Where, g.massPredicate(ci, perPred))
		}
		return q
	}
	for p := 0; p < g.cfg.Predicates; p++ {
		ci := g.cols[g.rng.Intn(len(g.cols))]
		frac := predFracLo + g.rng.Float64()*(predFracHi-predFracLo)
		k := int(frac * float64(len(ci.values)))
		if k < 1 {
			k = 1
		}
		picked := randx.SampleWithoutReplacement(g.rng, len(ci.values), k)
		vals := make([]engine.Value, len(picked))
		for i, ix := range picked {
			vals[i] = ci.values[ix]
		}
		q.Where = append(q.Where, engine.NewIn(ci.name, vals...))
	}
	return q
}

// massPredicate picks random values of the column until they cover at least
// the target fraction of the rows.
func (g *Generator) massPredicate(ci colInfo, target float64) engine.Predicate {
	perm := g.rng.Perm(len(ci.values))
	var vals []engine.Value
	var mass int64
	need := int64(target * float64(ci.total))
	for _, ix := range perm {
		vals = append(vals, ci.values[ix])
		mass += ci.counts[ix]
		if mass >= need {
			break
		}
	}
	return engine.NewIn(ci.name, vals...)
}

// Queries generates n random queries.
func (g *Generator) Queries(n int) []*engine.Query {
	out := make([]*engine.Query, n)
	for i := range out {
		out[i] = g.Query()
	}
	return out
}
