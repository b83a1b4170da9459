// Package uniform implements the plain uniform-random-sampling AQP baseline
// the paper compares against throughout §5: one reservoir sample of the
// database stored as a flat join synopsis, with aggregates scaled by the
// inverse sampling rate — small group sampling with S empty, whose default
// overall sample is exactly that reservoir.
package uniform

import (
	"dynsample/internal/core"
	"dynsample/internal/engine"
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
	return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: s.cfg.Rate, Columns: []string{}, Seed: s.cfg.Seed}).Preprocess(db)
}
