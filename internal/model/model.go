// Package model evaluates the analytical error model of §4.4 (Theorem 4.1):
// the expected average squared relative error of uniform random sampling and
// of small group sampling on count queries over an idealised database whose
// attributes are i.i.d. truncated-Zipf.
//
// The model reproduces Figures 3(a) and 3(b). Group probabilities are the
// products of per-attribute marginals; a group escapes the small group tables
// (and therefore contributes estimation error) exactly when every one of its
// attribute values is in the common set L(C). Following the fair-comparison
// convention of §4.4/§5.3.1, both methods get the same runtime sample budget:
// if small group sampling uses an overall sample of s0 rows and g small group
// tables of γ·s0 rows each, uniform sampling gets s = s0·(1+γ·g) rows.
package model

import (
	"fmt"
	"math"

	"dynsample/internal/randx"
)

// Params describes one model evaluation point.
//
// Both methods share the same runtime budget of TotalBudget sample rows
// (§4.4: "we allow each system to use the same amount of sample space per
// query at runtime"). Uniform sampling spends it all on one sample; small
// group sampling splits it into an overall sample of s0 = TotalBudget/(1+γ·G)
// rows plus G small group tables of γ·s0 rows each. Uniform's error is
// therefore independent of γ — the flat line of Figure 3(a).
type Params struct {
	// G is the number of grouping columns.
	G int
	// Sigma is the selection predicate selectivity σ (each tuple passes
	// independently with probability σ); 1 means no predicate.
	Sigma float64
	// C is the number of distinct values per attribute (the truncation c).
	C int
	// Z is the Zipf skew parameter.
	Z float64
	// N is the database size in rows (an abstract model quantity; nothing is
	// materialised).
	N float64
	// TotalBudget is s, the shared runtime sample budget in rows.
	TotalBudget float64
	// Gamma is the sampling allocation ratio γ = t/r.
	Gamma float64
}

func (p Params) validate() error {
	switch {
	case p.G < 1:
		return fmt.Errorf("model: G %d < 1", p.G)
	case p.Sigma <= 0 || p.Sigma > 1:
		return fmt.Errorf("model: sigma %g out of (0,1]", p.Sigma)
	case p.C < 1:
		return fmt.Errorf("model: C %d < 1", p.C)
	case p.Z < 0:
		return fmt.Errorf("model: Z %g < 0", p.Z)
	case p.N <= 0:
		return fmt.Errorf("model: N %g <= 0", p.N)
	case p.TotalBudget <= 0 || p.TotalBudget > p.N:
		return fmt.Errorf("model: total budget %g out of (0, N]", p.TotalBudget)
	case p.Gamma < 0:
		return fmt.Errorf("model: gamma %g < 0", p.Gamma)
	}
	return nil
}

// Point holds the two expected errors at one parameter setting.
type Point struct {
	// Eu is E[SqRelErr] for uniform sampling (Equation 1).
	Eu float64
	// Esg is E[SqRelErr] for small group sampling (Equation 2).
	Esg float64
}

// Evaluate computes the expected SqRelErr of both methods under the
// semantics of the empirical metric (Definitions 4.1–4.3) rather than the
// unbounded raw equations:
//
//   - A group whose variance-based squared relative error exceeds 1 is
//     effectively missed, and the metric scores an omitted group as exactly
//     100% error, so the per-group term is capped at 1.
//   - On a finite database a group only appears in the exact answer if at
//     least one of its tuples survives the selection predicate; groups are
//     weighted by that existence probability 1−exp(−N·σ·p). This models the
//     §5.3.1 observation that at very high skew "selection predicates often
//     filter those values out altogether, leaving predominantly large
//     groups", which lets uniform sampling partially recover.
func Evaluate(p Params) (Point, error) {
	return evaluate(p, true)
}

// evaluate is Evaluate when metric is set. Without it, it computes Equations
// 1 and 2 of Theorem 4.1 literally, by enumerating the C^G cross-product
// groups, the form the tests check against hand computations. The
// effective per-group sample mass is reduced by σ (a selection predicate
// thins the sample of every group equally in expectation). The raw
// equations treat every one of the C^G groups as present and let the
// per-group squared relative error (1−p)/(s·σ·p) grow without bound as p→0,
// so their absolute values are dominated by vanishing groups at high skew.
func evaluate(p Params, metric bool) (Point, error) {
	if err := p.validate(); err != nil {
		return Point{}, err
	}
	zipf := randx.NewZipf(p.Z, p.C)
	probs := zipf.Probs() // descending

	// Split the shared budget: s0 for the overall sample, γ·s0 per table.
	su := p.TotalBudget
	s0 := p.TotalBudget / (1 + p.Gamma*float64(p.G))

	// Common-value prefix length k: L(C) is the minimal prefix of the
	// frequency-sorted values with mass >= 1 - t, where t = γ·r = γ·s0/N.
	t := p.Gamma * s0 / p.N
	k := 0
	cum := 0.0
	for k < p.C && cum < 1-t {
		cum += probs[k]
		k++
	}

	// Enumerate groups with an odometer over G digits in [0, C).
	digits := make([]int, p.G)
	var eu, esg, totalWeight float64
	for {
		pi := 1.0
		allCommon := true
		for _, d := range digits {
			pi *= probs[d]
			if d >= k {
				allCommon = false
			}
		}
		weight := 1.0
		term := func(s float64) float64 {
			e := (1 - pi) / (s * p.Sigma * pi)
			if metric && e > 1 {
				e = 1
			}
			return e
		}
		if metric {
			weight = 1 - math.Exp(-p.N*p.Sigma*pi)
		}
		totalWeight += weight
		eu += weight * term(su)
		if allCommon {
			esg += weight * term(s0)
		}

		// Advance odometer.
		i := 0
		for ; i < p.G; i++ {
			digits[i]++
			if digits[i] < p.C {
				break
			}
			digits[i] = 0
		}
		if i == p.G {
			break
		}
	}
	if totalWeight == 0 {
		return Point{}, nil
	}
	return Point{Eu: eu / totalWeight, Esg: esg / totalWeight}, nil
}

// SweepGamma evaluates the model across allocation ratios (Figure 3a).
func SweepGamma(base Params, gammas []float64) ([]Point, error) {
	out := make([]Point, len(gammas))
	for i, g := range gammas {
		p := base
		p.Gamma = g
		pt, err := Evaluate(p)
		if err != nil {
			return nil, err
		}
		out[i] = pt
	}
	return out, nil
}

// SweepZ evaluates the model across skew parameters (Figure 3b).
func SweepZ(base Params, zs []float64) ([]Point, error) {
	out := make([]Point, len(zs))
	for i, z := range zs {
		p := base
		p.Z = z
		pt, err := Evaluate(p)
		if err != nil {
			return nil, err
		}
		out[i] = pt
	}
	return out, nil
}
