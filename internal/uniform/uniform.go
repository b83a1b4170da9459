// Package uniform implements the plain uniform-random-sampling AQP baseline
// the paper compares against throughout §5: one reservoir sample of the
// database stored as a flat join synopsis, with aggregates scaled by the
// inverse sampling rate — the sample family with nothing in S
// (core.OverallOnly).
package uniform

import (
	"fmt"
	"sort"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
)

// Config parameterises the uniform baseline.
type Config struct {
	// Rate is the sampling rate as a fraction of the database. For matched
	// comparisons against small group sampling with g grouping columns and
	// allocation ratio γ, experiments use (1+γ·g)·r (§5.3.1).
	Rate float64
	// Seed drives the reservoir.
	Seed int64
}

// Strategy is the uniform sampling baseline.
type Strategy struct {
	cfg Config
}

// New returns the strategy.
func New(cfg Config) *Strategy { return &Strategy{cfg: cfg} }

// Name implements core.Strategy.
func (s *Strategy) Name() string { return "uniform" }

// Preprocess implements core.Strategy.
func (s *Strategy) Preprocess(db *engine.Database) (core.Prepared, error) {
	if s.cfg.Rate <= 0 || s.cfg.Rate > 1 {
		return nil, fmt.Errorf("uniform: rate %g out of (0,1]", s.cfg.Rate)
	}
	if db.NumRows() == 0 {
		return nil, fmt.Errorf("uniform: database %q is empty", db.Name)
	}
	n := db.NumRows()
	target := int(s.cfg.Rate * float64(n))
	if target < 1 {
		target = 1
	}
	res := sample.NewReservoir(target, randx.New(s.cfg.Seed))
	for i := 0; i < n; i++ {
		res.Offer(i)
	}
	rows := append([]int(nil), res.Items()...)
	sort.Ints(rows)
	return core.OverallOnly(db, "u_sample", rows, nil), nil
}
