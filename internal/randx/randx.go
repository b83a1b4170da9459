// Package randx provides the deterministic random-variate generators used by
// the data and workload generators and by the samplers.
//
// Everything is seeded explicitly so experiments are reproducible run to run.
// The returned generators wrap *rand.Rand and are not safe for concurrent
// use — code that fans out across workers must either confine a generator to
// one goroutine or derive one generator per worker from distinct seeds.
// The truncated Zipf distribution here follows the paper's analytical model
// (§4.4): "the frequency of the i-th most common value for an attribute is
// proportional to i^-z ... except that the frequency is 0 if i > c". Unlike
// math/rand.Zipf it supports any z >= 0 (including z <= 1) and a hard cutoff c.
package randx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// New returns a deterministic *rand.Rand for the given seed.
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Zipf draws values in [0, c) with P(i) proportional to (i+1)^-z.
// The zero value is not usable; construct with NewZipf.
type Zipf struct {
	cdf   []float64 // cdf[i] = P(value <= i)
	probs []float64
}

// NewZipf returns a truncated Zipf distribution over c values with skew z.
// z = 0 is the uniform distribution. It panics if c < 1 or z < 0.
func NewZipf(z float64, c int) *Zipf {
	if c < 1 {
		panic(fmt.Sprintf("randx: Zipf needs c >= 1, got %d", c))
	}
	if z < 0 {
		panic(fmt.Sprintf("randx: Zipf needs z >= 0, got %g", z))
	}
	probs := make([]float64, c)
	total := 0.0
	for i := 0; i < c; i++ {
		probs[i] = math.Pow(float64(i+1), -z)
		total += probs[i]
	}
	cdf := make([]float64, c)
	cum := 0.0
	for i := 0; i < c; i++ {
		probs[i] /= total
		cum += probs[i]
		cdf[i] = cum
	}
	cdf[c-1] = 1.0 // guard against float drift
	return &Zipf{cdf: cdf, probs: probs}
}

// N returns the number of distinct values.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns P(value = i).
func (z *Zipf) Prob(i int) float64 { return z.probs[i] }

// Probs returns the full probability vector, most common value first.
// The returned slice is shared; callers must not modify it.
func (z *Zipf) Probs() []float64 { return z.probs }

// Draw samples a value index in [0, N()) using rng.
func (z *Zipf) Draw(rng *rand.Rand) int { return z.Index(rng.Float64()) }

// Index is the inverse CDF: the value index Draw returns when rng.Float64()
// returns u. It reads no generator, so it may run anywhere.
func (z *Zipf) Index(u float64) int { return inverse(z.cdf, u) }

// headProbe is how many CDF entries inverse tries in order before it bisects:
// a skewed distribution puts most of its mass there (93 % in the first eight
// values of a zipf at z = 2), where a probe in order costs one predictable
// branch a value and a bisection costs a mispredicted one per halving.
const headProbe = 8

// inverse returns the least i with cdf[i] >= u, as sort.SearchFloat64s does.
func inverse(cdf []float64, u float64) int {
	h := min(headProbe, len(cdf))
	for i, c := range cdf[:h] {
		if u <= c {
			return i
		}
	}
	return h + sort.SearchFloat64s(cdf[h:], u)
}

// Categorical draws from an arbitrary finite distribution.
type Categorical struct {
	cdf []float64
}

// NewCategorical builds a categorical distribution from unnormalised,
// non-negative weights. It panics if weights is empty or sums to zero.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("randx: empty categorical")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("randx: invalid weight %g", w))
		}
		total += w
	}
	if total == 0 {
		panic("randx: zero-mass categorical")
	}
	cdf := make([]float64, len(weights))
	cum := 0.0
	for i, w := range weights {
		cum += w / total
		cdf[i] = cum
	}
	cdf[len(cdf)-1] = 1.0
	return &Categorical{cdf: cdf}
}

// Draw samples an index using rng.
func (c *Categorical) Draw(rng *rand.Rand) int { return c.Index(rng.Float64()) }

// Index is the inverse CDF, as Zipf.Index.
func (c *Categorical) Index(u float64) int { return inverse(c.cdf, u) }

// N returns the number of categories.
func (c *Categorical) N() int { return len(c.cdf) }

// Perm fills a deterministic pseudo-random permutation of [0,n).
func Perm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n) using Floyd's algorithm. It panics if k > n.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("randx: sample %d from %d", k, n))
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// LogNormal draws a log-normal variate with the given parameters of the
// underlying normal. Used for skewed measure columns (e.g. revenue).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}
