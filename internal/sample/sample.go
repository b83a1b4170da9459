// Package sample implements the random sampling primitives the AQP
// strategies are built from: Vitter's reservoir sampling (used by small group
// sampling's second pass to build the overall sample in one scan, §4.2.1),
// fixed-size and Poisson draws, and stratified allocation helpers used by
// the congressional baseline.
//
// Samplers are deliberately not safe for concurrent use: each one owns a
// seeded *rand.Rand, and reproducibility requires a single, fixed draw
// order. Pre-processing's second scan therefore runs in two parts: a
// row-sharded pass (internal/parallel) finds which rows belong to a small
// group table, then one goroutine replays every row in order and does all
// the sampling — the medium-band coins and the reservoir offers.
package sample

import (
	"fmt"
	"math/rand"
)

// Reservoir maintains a uniform random sample of fixed capacity over a stream
// of ints (row indices), using Vitter's Algorithm R [Vitter 1985].
type Reservoir struct {
	capacity int
	seen     int64
	items    []int
	rng      *rand.Rand
}

// NewReservoir returns a reservoir holding at most capacity items.
func NewReservoir(capacity int, rng *rand.Rand) *Reservoir {
	if capacity < 0 {
		panic(fmt.Sprintf("sample: negative reservoir capacity %d", capacity))
	}
	return &Reservoir{capacity: capacity, items: make([]int, 0, capacity), rng: rng}
}

// Offer presents one stream element to the reservoir.
func (r *Reservoir) Offer(item int) {
	r.seen++
	if len(r.items) < r.capacity {
		r.items = append(r.items, item)
		return
	}
	// Replace a random slot with probability capacity/seen.
	if j := r.rng.Int63n(r.seen); j < int64(r.capacity) {
		r.items[j] = item
	}
}

// Seen returns the number of elements offered so far.
func (r *Reservoir) Seen() int64 { return r.seen }

// Items returns the current sample. The slice is owned by the reservoir.
func (r *Reservoir) Items() []int { return r.items }

// FixedSize draws exactly k of the n indices uniformly without replacement
// (k > n yields all n). The result is in increasing order.
func FixedSize(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Selection sampling (Knuth Algorithm S): one pass, sorted output.
	out := make([]int, 0, k)
	need := k
	for i := 0; i < n && need > 0; i++ {
		if rng.Float64()*float64(n-i) < float64(need) {
			out = append(out, i)
			need--
		}
	}
	return out
}

// Allocation distributes a total sample budget across strata.
type Allocation struct {
	// Rates[i] is the sampling rate for stratum i, in [0,1].
	Rates []float64
}

// ProportionalAllocation gives every stratum the same rate total/sum(sizes):
// the "house" of congressional sampling, equivalent to a uniform sample.
func ProportionalAllocation(sizes []int64, total float64) Allocation {
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	rates := make([]float64, len(sizes))
	if sum == 0 {
		return Allocation{Rates: rates}
	}
	rate := total / float64(sum)
	for i := range rates {
		rates[i] = clampRate(rate)
	}
	return Allocation{Rates: rates}
}

// EqualAllocation divides the budget equally among non-empty strata: the
// "senate". Rates are capped at 1 and the slack is not redistributed, which
// matches the basic congress description.
func EqualAllocation(sizes []int64, total float64) Allocation {
	nonEmpty := 0
	for _, s := range sizes {
		if s > 0 {
			nonEmpty++
		}
	}
	rates := make([]float64, len(sizes))
	if nonEmpty == 0 {
		return Allocation{Rates: rates}
	}
	share := total / float64(nonEmpty)
	for i, s := range sizes {
		if s > 0 {
			rates[i] = clampRate(share / float64(s))
		}
	}
	return Allocation{Rates: rates}
}

// CongressAllocation takes, per stratum, the max of the house and senate
// rates and rescales so the expected sample size equals total. This is the
// basic congress hybrid allocation of [Acharya-Gibbons-Poosala 2000] that the
// paper benchmarks against (§5.3.2).
func CongressAllocation(sizes []int64, total float64) Allocation {
	house := ProportionalAllocation(sizes, total)
	senate := EqualAllocation(sizes, total)
	rates := make([]float64, len(sizes))
	expected := 0.0
	for i := range sizes {
		r := house.Rates[i]
		if senate.Rates[i] > r {
			r = senate.Rates[i]
		}
		rates[i] = r
		expected += r * float64(sizes[i])
	}
	if expected > 0 {
		scale := total / expected
		for i := range rates {
			rates[i] = clampRate(rates[i] * scale)
		}
	}
	return Allocation{Rates: rates}
}

// PoissonByWeight draws a Poisson (independent-inclusion) sample where
// tuple i is included with probability proportional to weights[i], capped at
// 1, with the proportionality constant solved by bisection so the expected
// sample size equals target. It returns the chosen indices (ascending) and
// their inverse inclusion probabilities — the Horvitz-Thompson weights that
// make any downstream aggregate unbiased.
func PoissonByWeight(rng *rand.Rand, weights []float64, target float64) (rows []int, invProb []float64) {
	if len(weights) == 0 || target <= 0 {
		return nil, nil
	}
	expected := func(c float64) float64 {
		var sum float64
		for _, w := range weights {
			p := c * w
			if p > 1 {
				p = 1
			}
			sum += p
		}
		return sum
	}
	lo, hi := 0.0, 1.0
	for expected(hi) < target && hi < 1e12 {
		hi *= 2
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if expected(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	c := hi
	for i, w := range weights {
		p := c * w
		if p > 1 {
			p = 1
		}
		if p > 0 && rng.Float64() < p {
			rows = append(rows, i)
			invProb = append(invProb, 1/p)
		}
	}
	return rows, invProb
}

func clampRate(r float64) float64 {
	if r > 1 {
		return 1
	}
	if r < 0 {
		return 0
	}
	return r
}
