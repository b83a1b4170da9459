// Package weighted implements workload-based weighted sampling in the style
// of [Chaudhuri, Das, Narasayya — SIGMOD 2001], the §2 related-work baseline
// that "uses workload information to construct biased samples to optimize
// performance on queries drawn from a known workload". The paper excludes it
// from its own comparisons only because its experiments assume no workload
// is available ("we do not present comparisons against other sampling-based
// AQP systems such as [10, 15] as these methods require the presence of
// workloads"); with the workload generator in this repository the method is
// directly usable.
//
// The scheme: replay the training workload over the base data and count, for
// every tuple, how many queries select it. Tuples are then drawn by Poisson
// sampling with inclusion probability proportional to (count + smoothing),
// capped at 1, with the proportionality constant solved so the expected
// sample size matches the budget. Stored weights are the inverse inclusion
// probabilities, so the Horvitz-Thompson estimate is unbiased for any query
// while variance concentrates on the workload's footprint.
package weighted

import (
	"fmt"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
	"dynsample/internal/sqlparse"
)

// Config parameterises workload-weighted sampling. It is a
// core.OverallBuilder: set as SmallGroupConfig.Overall of a family with
// nothing in S, it is the weighted baseline.
type Config struct {
	// Rate is the expected sample size as a fraction of the database. The
	// size is the family's base rate: zero means it, and another value is
	// refused.
	Rate float64
	// Workload is the training query set whose footprint biases the sample,
	// as SQL over the view T (SQL renders queries so).
	Workload []string
	// Smoothing is added to every tuple's usage count so tuples outside the
	// workload footprint keep non-zero inclusion probability (zero means 0.1;
	// a negative value, which would leave them out, and NaN are refused).
	Smoothing float64
	// Seed drives the Poisson sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Smoothing == 0 {
		c.Smoothing = 0.1
	}
	return c
}

// SQL renders queries as the training workload a Config holds.
func SQL(queries []*engine.Query) []string {
	sql := make([]string, len(queries))
	for i, q := range queries {
		sql[i] = q.String()
	}
	return sql
}

// BuildOverall implements core.OverallBuilder: a Poisson sample of expected
// size rate·N biased toward the workload's footprint, each row weighted by
// its inverse inclusion probability.
func (c Config) BuildOverall(db *engine.Database, rate float64) ([]int, []float64, error) {
	cfg := c.withDefaults()
	if cfg.Rate != 0 && cfg.Rate != rate {
		return nil, nil, fmt.Errorf("weighted: rate %g differs from the base rate %g", cfg.Rate, rate)
	}
	if !(cfg.Smoothing >= 0) {
		return nil, nil, fmt.Errorf("weighted: smoothing %g is negative or NaN", cfg.Smoothing)
	}
	if len(cfg.Workload) == 0 {
		return nil, nil, fmt.Errorf("weighted: empty training workload")
	}
	n := db.NumRows()

	// Usage counts: how many workload queries select each tuple.
	usage := make([]float64, n)
	for qi, sql := range cfg.Workload {
		stmt, err := sqlparse.Parse(sql)
		var c *sqlparse.Compiled
		if err == nil {
			c, err = sqlparse.Compile(stmt, db)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("weighted: workload query %d: %w", qi, err)
		}
		q := c.Query
		type boundPred struct {
			acc engine.ColumnAccessor
			p   engine.Predicate
		}
		preds := make([]boundPred, len(q.Where))
		for i, p := range q.Where {
			acc, err := db.Accessor(p.Column())
			if err != nil {
				return nil, nil, err
			}
			preds[i] = boundPred{acc, p}
		}
	rows:
		for row := 0; row < n; row++ {
			for _, bp := range preds {
				if !bp.p.Matches(bp.acc.Value(row)) {
					continue rows
				}
			}
			usage[row]++
		}
	}
	for i := range usage {
		usage[i] += cfg.Smoothing
	}

	// Poisson sampling with inclusion probability proportional to usage.
	rng := randx.New(cfg.Seed)
	rows, weights := sample.PoissonByWeight(rng, usage, rate*float64(n))
	if len(rows) == 0 {
		// Degenerate budget: fall back to one uniform row.
		rows = []int{rng.Intn(n)}
		weights = []float64{float64(n)}
	}
	return rows, weights, nil
}
