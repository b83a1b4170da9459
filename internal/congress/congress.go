// Package congress implements congressional sampling [Acharya, Gibbons,
// Poosala — SIGMOD 2000], the stratified-sampling baseline of §5.3.2.
//
// Basic congress stratifies the database on the cross-product of all
// candidate grouping columns and allocates the sample budget to each stratum
// as the normalised maximum of the "house" (proportional) and "senate"
// (equal-per-group) allocations. The full congress algorithm additionally
// maximises over every subset of the grouping columns; its running time is
// exponential in the number of columns — the paper could not run it on the
// 245-column SALES schema and neither strategy scales past a handful of
// columns, so Full guards its column count.
package congress

import (
	"fmt"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
)

// Variant selects between the basic and full congress allocations.
type Variant int

// Congress variants.
const (
	// Basic stratifies on the single finest grouping (all candidate columns
	// at once): "we implemented a more tractable version of the algorithm
	// called basic congress" (§5.3.2).
	Basic Variant = iota
	// Full maximises the per-stratum rate over every non-empty subset of
	// candidate columns plus the house. Exponential; requires few columns.
	Full
)

// MaxFullColumns bounds the candidate set for the Full variant (2^m subsets).
const MaxFullColumns = 12

// Config parameterises congressional sampling. It is a core.OverallBuilder:
// set as core.SmallGroupConfig.Overall of a family with nothing in S, it is
// the congress baseline.
type Config struct {
	// Rate is the total expected sample size as a fraction of the database.
	// The size is the family's base rate: zero means it, and another value
	// is refused.
	Rate float64
	// Columns is the candidate grouping-column set T. Nil means every view
	// column with at most DistinctLimit distinct values.
	Columns []string
	// DistinctLimit drops high-cardinality columns from the default
	// candidate set; a family resolves zero to its τ,
	// core.DefaultDistinctLimit.
	DistinctLimit int
	// Variant selects Basic (default) or Full congress; pre-processing
	// refuses any other value.
	Variant Variant
	// Seed drives stratum-level sampling.
	Seed int64
}

// StrataCount reports how many strata BuildOverall allocates over db
// (§5.3.2 notes basic congress built ~166,000 tiny strata on the SALES
// schema).
func (c Config) StrataCount(db *engine.Database) (int, error) {
	_, _, sizes, err := c.stratify(db)
	return len(sizes), err
}

// BuildOverall implements core.OverallBuilder: a stratified sample of
// expected size rate·N, each row weighted by its stratum's inverse sampling
// rate.
func (c Config) BuildOverall(db *engine.Database, rate float64) ([]int, []float64, error) {
	if c.Rate != 0 && c.Rate != rate {
		return nil, nil, fmt.Errorf("congress: rate %g differs from the base rate %g", c.Rate, rate)
	}
	if c.Variant != Basic && c.Variant != Full {
		return nil, nil, fmt.Errorf("congress: unknown variant %d", c.Variant)
	}
	cols, rowStratum, sizes, err := c.stratify(db)
	if err != nil {
		return nil, nil, err
	}
	n := db.NumRows()
	budget := rate * float64(n)

	var rates []float64
	if c.Variant == Basic {
		rates = sample.CongressAllocation(sizes, budget).Rates
	} else {
		rates, err = fullCongressRates(db, cols, rowStratum, sizes, budget)
		if err != nil {
			return nil, nil, err
		}
	}

	// Draw a fixed-size uniform sample inside every stratum.
	rng := randx.New(c.Seed)
	byStratum := make([][]int, len(sizes))
	for row := 0; row < n; row++ {
		id := rowStratum[row]
		byStratum[id] = append(byStratum[id], row)
	}
	var rows []int
	var weights []float64
	for id, members := range byStratum {
		// Randomised rounding keeps the expected sample size equal to the
		// budget even when the allocation degenerates into a huge number of
		// tiny strata (the paper observed ~166,000 strata on SALES, where
		// basic congress "almost resembled a sample from a uniform
		// distribution", §5.3.2). A deterministic at-least-one-row floor
		// would silently blow the budget by |strata| rows.
		expect := rates[id] * float64(len(members))
		k := int(expect)
		if rng.Float64() < expect-float64(k) {
			k++
		}
		if k > len(members) {
			k = len(members)
		}
		if k == 0 {
			continue
		}
		w := float64(len(members)) / float64(k)
		for _, ix := range sample.FixedSize(rng, len(members), k) {
			rows = append(rows, members[ix])
			weights = append(weights, w)
		}
	}
	return rows, weights, nil
}

// stratify finds the candidate columns and stratifies db on their finest
// grouping (all of them at once): each row's stratum and each stratum's size.
func (c Config) stratify(db *engine.Database) (cols []string, rowStratum []int32, sizes []int64, err error) {
	if cols, err = candidateColumns(db, c); err != nil {
		return nil, nil, nil, err
	}
	if c.Variant == Full && len(cols) > MaxFullColumns {
		return nil, nil, nil, fmt.Errorf("congress: full congress over %d columns needs 2^%d groupings; limit is %d columns", len(cols), len(cols), MaxFullColumns)
	}
	n := db.NumRows()
	accs := make([]engine.ColumnAccessor, len(cols))
	for i, col := range cols {
		acc, err := db.Accessor(col)
		if err != nil {
			return nil, nil, nil, err
		}
		accs[i] = acc
	}
	strata := make(map[engine.GroupKey]int)
	rowStratum = make([]int32, n)
	keyVals := make([]engine.Value, len(cols))
	for row := 0; row < n; row++ {
		for i, acc := range accs {
			keyVals[i] = acc.Value(row)
		}
		k := engine.EncodeKey(keyVals)
		id, ok := strata[k]
		if !ok {
			id = len(sizes)
			strata[k] = id
			sizes = append(sizes, 0)
		}
		rowStratum[row] = int32(id)
		sizes[id]++
	}
	return cols, rowStratum, sizes, nil
}

func candidateColumns(db *engine.Database, cfg Config) ([]string, error) {
	if cfg.Columns != nil {
		for _, c := range cfg.Columns {
			if !db.HasColumn(c) {
				return nil, fmt.Errorf("congress: unknown column %q", c)
			}
		}
		return cfg.Columns, nil
	}
	var cols []string
	for _, c := range db.Columns() {
		vcs, err := db.DistinctValues(c)
		if err != nil {
			return nil, err
		}
		if len(vcs) <= cfg.DistinctLimit {
			cols = append(cols, c)
		}
	}
	return cols, nil
}

// fullCongressRates computes, per finest-grouping stratum, the maximum over
// every non-empty column subset g of the senate rate for the g-group the
// stratum falls into, plus the house rate, rescaled to the budget.
func fullCongressRates(db *engine.Database, cols []string, rowStratum []int32, sizes []int64, budget float64) ([]float64, error) {
	n := db.NumRows()
	rates := sample.ProportionalAllocation(sizes, budget).Rates // house

	accs := make([]engine.ColumnAccessor, len(cols))
	for i, c := range cols {
		acc, err := db.Accessor(c)
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}

	// One representative row per stratum lets us map a stratum to its group
	// under any column subset.
	repr := make([]int, len(sizes))
	for i := range repr {
		repr[i] = -1
	}
	for row := 0; row < n; row++ {
		if repr[rowStratum[row]] == -1 {
			repr[rowStratum[row]] = row
		}
	}

	for subset := 1; subset < 1<<len(cols); subset++ {
		// Group sizes under this subset's grouping.
		groupSize := make(map[engine.GroupKey]int64)
		var keyVals []engine.Value
		keyOf := func(row int) engine.GroupKey {
			keyVals = keyVals[:0]
			for i := range cols {
				if subset&(1<<i) != 0 {
					keyVals = append(keyVals, accs[i].Value(row))
				}
			}
			return engine.EncodeKey(keyVals)
		}
		for row := 0; row < n; row++ {
			groupSize[keyOf(row)]++
		}
		share := budget / float64(len(groupSize)) // senate: equal per group
		for id, r := range repr {
			g := groupSize[keyOf(r)]
			if g == 0 {
				continue
			}
			rate := share / float64(g)
			if rate > 1 {
				rate = 1
			}
			if rate > rates[id] {
				rates[id] = rate
			}
		}
	}

	// Rescale so the expected sample size matches the budget.
	expected := 0.0
	for id, r := range rates {
		expected += r * float64(sizes[id])
	}
	if expected > 0 {
		scale := budget / expected
		for id := range rates {
			rates[id] *= scale
			if rates[id] > 1 {
				rates[id] = 1
			}
		}
	}
	return rates, nil
}
