// Package icicles implements self-tuning samples in the spirit of [Ganti,
// Lee, Ramakrishnan — VLDB 2000], the second workload-based baseline of §2:
// samples that "adapt to the query workload" as it arrives, instead of being
// fixed at pre-processing time.
//
// The icicle starts as a uniform sample. Each observed query increments a
// per-tuple usage count over the base data; Retune then redraws the sample
// by Poisson sampling with inclusion probability proportional to usage (plus
// smoothing), carrying Horvitz-Thompson weights so every answer stays
// unbiased. Usage counts decay on each retune, letting the sample follow a
// drifting workload — the property that distinguishes icicles from the
// one-shot weighted sample of internal/weighted.
//
// Unlike every other Prepared in this repository, an icicle mutates state
// after pre-processing: Observe updates usage counts and Retune swaps the
// sample table. A mutex guards that state — Answer snapshots the current
// table under the lock and then executes lock-free — so concurrent use is
// safe, with Observe/Retune as the serialisation points. ARCHITECTURE.md's
// concurrency model calls this out as the one exception to the
// immutable-after-preprocessing rule.
package icicles

import (
	"fmt"
	"sync"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
)

// Config parameterises the self-tuning sample.
type Config struct {
	// Rate is the expected sample size as a fraction of the database.
	Rate float64
	// Smoothing keeps unqueried tuples sampleable (zero means 0.25).
	Smoothing float64
	// Decay multiplies usage counts at each Retune, discounting stale
	// workload signal (zero means 0.5; 1 disables decay).
	Decay float64
	// ConfidenceLevel is the nominal CI coverage; zero means 0.95.
	ConfidenceLevel float64
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Smoothing == 0 {
		c.Smoothing = 0.25
	}
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	return c
}

// Icicle is a self-tuning sample. It implements core.Prepared; Observe and
// Retune mutate it as the workload arrives. All methods are safe for
// concurrent use.
type Icicle struct {
	mu    sync.Mutex
	db    *engine.Database
	cfg   Config
	rng   interface{ Float64() float64 }
	usage []float64
	table *engine.Table
	tunes int
}

// New builds an icicle over db, initially a uniform sample (every tuple's
// usage starts equal).
func New(db *engine.Database, cfg Config) (*Icicle, error) {
	cfg = cfg.withDefaults()
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("icicles: rate %g out of (0,1]", cfg.Rate)
	}
	if cfg.Decay <= 0 || cfg.Decay > 1 {
		return nil, fmt.Errorf("icicles: decay %g out of (0,1]", cfg.Decay)
	}
	if db.NumRows() == 0 {
		return nil, fmt.Errorf("icicles: database %q is empty", db.Name)
	}
	ic := &Icicle{db: db, cfg: cfg, usage: make([]float64, db.NumRows())}
	if err := ic.Retune(); err != nil {
		return nil, err
	}
	return ic, nil
}

// Observe folds one query's footprint into the usage counts. It does not
// redraw the sample; call Retune (typically after a batch) for that.
func (ic *Icicle) Observe(q *engine.Query) error {
	if err := q.Validate(ic.db); err != nil {
		return fmt.Errorf("icicles: %w", err)
	}
	type boundPred struct {
		acc engine.ColumnAccessor
		p   engine.Predicate
	}
	preds := make([]boundPred, len(q.Where))
	for i, p := range q.Where {
		acc, err := ic.db.Accessor(p.Column())
		if err != nil {
			return err
		}
		preds[i] = boundPred{acc, p}
	}
	ic.mu.Lock()
	defer ic.mu.Unlock()
	n := ic.db.NumRows()
rows:
	for row := 0; row < n; row++ {
		for _, bp := range preds {
			if !bp.p.Matches(bp.acc.Value(row)) {
				continue rows
			}
		}
		ic.usage[row]++
	}
	return nil
}

// Retune redraws the sample from the current usage counts and decays them.
func (ic *Icicle) Retune() error {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	n := ic.db.NumRows()
	weights := make([]float64, n)
	for i, u := range ic.usage {
		weights[i] = u + ic.cfg.Smoothing
	}
	rng := randx.New(ic.cfg.Seed + int64(ic.tunes))
	rows, invProb := sample.PoissonByWeight(rng, weights, ic.cfg.Rate*float64(n))
	if len(rows) == 0 {
		rows = []int{rng.Intn(n)}
		invProb = []float64{float64(n)}
	}
	ic.table = ic.db.Flatten(fmt.Sprintf("icicle_%d", ic.tunes), rows, nil, invProb)
	ic.tunes++
	for i := range ic.usage {
		ic.usage[i] *= ic.cfg.Decay
	}
	return nil
}

// Tunes reports how many times the sample has been redrawn.
func (ic *Icicle) Tunes() int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.tunes
}

// current snapshots the serving table as the shared single-sample runtime;
// the callers then execute lock-free.
func (ic *Icicle) current() *core.SingleSample {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return &core.SingleSample{Table: ic.table, Scale: 1, Level: ic.cfg.ConfidenceLevel}
}

// Answer implements core.Prepared.
func (ic *Icicle) Answer(q *engine.Query) (*core.Answer, error) { return ic.current().Answer(q) }

// SampleRows implements core.Prepared.
func (ic *Icicle) SampleRows() int64 { return ic.current().SampleRows() }

// SampleBytes implements core.Prepared.
func (ic *Icicle) SampleBytes() int64 { return ic.current().SampleBytes() }

// StoredBytes is what the sample table holds in memory.
func (ic *Icicle) StoredBytes() int64 { return ic.current().StoredBytes() }
