// Package outlier implements outlier indexing [Chaudhuri, Das, Datar,
// Motwani, Narasayya — ICDE 2001], the baseline of §5.3.3 for SUM queries
// over skewed measure attributes. Its Config is the row selector for both
// uses: the overall sample of a family with S empty, and the overall sample
// of small group sampling ("small group sampling enhanced with outlier
// indexing", §4.2.1).
//
// The technique splits the database into an outlier set — the rows whose
// removal minimises the variance of the remaining measure values — stored
// completely (weight 1), plus a uniform sample of the remainder scaled by its
// inverse sampling rate. The optimal outlier set for variance minimisation is
// the complement of a contiguous window in the sorted order of the measure
// values, found here by sliding that window with prefix sums.
package outlier

import (
	"fmt"
	"math"
	"sort"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
)

// Config parameterises outlier indexing. It is a core.OverallBuilder: set as
// SmallGroupConfig.Overall, it enhances small group sampling with outlier
// indexing at the base rate.
type Config struct {
	// Rate is the total sample budget as a fraction of the database,
	// covering both the outlier set and the remainder sample. The budget is
	// the family's base rate: zero means it, and another value is refused.
	Rate float64
	// Measure is the aggregate column the outlier index is built for.
	Measure string
	// OutlierShare is the fraction of the budget devoted to outlier rows
	// (zero means 0.5).
	OutlierShare float64
	// Seed drives the remainder sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.OutlierShare == 0 {
		c.OutlierShare = 0.5
	}
	return c
}

// SelectOutliers returns the indices (into values) of the k elements whose
// removal minimises the variance of the remaining values. The optimal set is
// the complement of a length-(n−k) window in sorted order; the window is
// found with prefix sums in O(n log n).
func SelectOutliers(values []float64, k int) []int {
	n := len(values)
	if k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })

	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, ix := range order {
		v := values[ix]
		prefix[i+1] = prefix[i] + v
		prefixSq[i+1] = prefixSq[i] + v*v
	}

	w := n - k // window length
	bestStart, bestVar := 0, math.Inf(1)
	for s := 0; s+w <= n; s++ {
		sum := prefix[s+w] - prefix[s]
		sumSq := prefixSq[s+w] - prefixSq[s]
		variance := sumSq/float64(w) - (sum/float64(w))*(sum/float64(w))
		if variance < bestVar {
			bestVar = variance
			bestStart = s
		}
	}
	out := make([]int, 0, k)
	out = append(out, order[:bestStart]...)
	out = append(out, order[bestStart+w:]...)
	sort.Ints(out)
	return out
}

// BuildOverall implements core.OverallBuilder: the outlier rows at weight 1
// and a remainder sample at its inverse sampling rate, max(1, ⌊rate·N⌋) rows
// in all, so a single weighted execution yields the stratified estimate
// (exact outlier contribution + scaled sample estimate) for both COUNT and
// SUM.
func (c Config) BuildOverall(db *engine.Database, rate float64) ([]int, []float64, error) {
	cfg := c.withDefaults()
	if cfg.Rate != 0 && cfg.Rate != rate {
		return nil, nil, fmt.Errorf("outlier: rate %g differs from the base rate %g", cfg.Rate, rate)
	}
	acc, err := db.Accessor(cfg.Measure)
	if err != nil {
		return nil, nil, fmt.Errorf("outlier: %w", err)
	}
	n := db.NumRows()
	target := max(1, int(rate*float64(n)))
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = acc.Float(i)
	}
	k := int(cfg.OutlierShare * float64(target))
	if k > target {
		k = target
	}
	outliers := SelectOutliers(values, k)
	isOutlier := make([]bool, n)
	for _, ix := range outliers {
		isOutlier[ix] = true
	}
	remainder := make([]int, 0, n-len(outliers))
	for i := 0; i < n; i++ {
		if !isOutlier[i] {
			remainder = append(remainder, i)
		}
	}
	sampleSize := target - len(outliers)
	if sampleSize < 1 && len(remainder) > 0 {
		sampleSize = 1
	}
	rng := randx.New(cfg.Seed)
	var rows []int
	var weights []float64
	for _, ix := range outliers {
		rows = append(rows, ix)
		weights = append(weights, 1)
	}
	if len(remainder) > 0 && sampleSize > 0 {
		picked := sample.FixedSize(rng, len(remainder), sampleSize)
		w := float64(len(remainder)) / float64(len(picked))
		for _, p := range picked {
			rows = append(rows, remainder[p])
			weights = append(weights, w)
		}
	}
	return rows, weights, nil
}
