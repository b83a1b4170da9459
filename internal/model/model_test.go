package model

import (
	"math"
	"testing"
)

func TestEvaluateRawMatchesHandComputation(t *testing.T) {
	// Uniform distribution (z=0), 1 grouping column, c=2: every group has
	// p=1/2. Eq 1: Eu = (1/n)·Σ (1-p)/(s·σ·p) = (1/2)·2·((0.5)/(s·0.5)) = 1/s.
	p := Params{G: 1, Sigma: 1, C: 2, Z: 0, N: 1e6, TotalBudget: 100, Gamma: 0}
	pt, err := evaluate(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.Eu-0.01) > 1e-12 {
		t.Errorf("Eu = %g, want 0.01", pt.Eu)
	}
	// With gamma=0 no groups are captured, so Esg = Eu.
	if math.Abs(pt.Esg-pt.Eu) > 1e-12 {
		t.Errorf("Esg = %g != Eu = %g at gamma 0", pt.Esg, pt.Eu)
	}
}

func TestEvaluateRawTwoColumns(t *testing.T) {
	// z=0, c=2, g=2: four groups each p=1/4.
	// Eu = (1/4)·4·(0.75/(s·0.25)) = 3/s.
	p := Params{G: 2, Sigma: 1, C: 2, Z: 0, N: 1e6, TotalBudget: 300, Gamma: 0}
	pt, err := evaluate(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.Eu-0.01) > 1e-12 {
		t.Errorf("Eu = %g, want 0.01", pt.Eu)
	}
}

func TestEvaluateRawSelectivityScales(t *testing.T) {
	base := Params{G: 1, Sigma: 1, C: 10, Z: 1.5, N: 1e6, TotalBudget: 1000, Gamma: 0}
	full, err := evaluate(base, false)
	if err != nil {
		t.Fatal(err)
	}
	base.Sigma = 0.5
	half, err := evaluate(base, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.Eu-2*full.Eu) > 1e-9*full.Eu {
		t.Errorf("sigma=0.5 Eu = %g, want 2x %g", half.Eu, full.Eu)
	}
}

func TestGammaZeroEqualsUniform(t *testing.T) {
	// "Uniform random sampling is equivalent to small group sampling with a
	// sampling allocation ratio of zero."
	for _, z := range []float64{0.5, 1.0, 1.8, 2.5} {
		p := Params{G: 2, Sigma: 0.1, C: 50, Z: z, N: 1e5, TotalBudget: 2e4, Gamma: 0}
		pt, err := Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pt.Eu-pt.Esg) > 1e-12 {
			t.Errorf("z=%g: Eu %g != Esg %g at gamma 0", z, pt.Eu, pt.Esg)
		}
	}
}

func TestCapturedGroupsReduceError(t *testing.T) {
	// At moderate skew, gamma=0.5 must beat gamma=0 (Figure 3a's dip).
	base := Params{G: 2, Sigma: 0.1, C: 50, Z: 1.8, N: 1e5, TotalBudget: 2e4}
	pts, err := SweepGamma(base, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Esg >= pts[0].Esg {
		t.Errorf("Esg(0.5)=%g not below Esg(0)=%g", pts[1].Esg, pts[0].Esg)
	}
	// Uniform's error must be flat in gamma.
	if pts[0].Eu != pts[1].Eu {
		t.Errorf("Eu varies with gamma: %g vs %g", pts[0].Eu, pts[1].Eu)
	}
}

func TestSkewCrossover(t *testing.T) {
	// Figure 3(b): at moderate-to-high skew small group sampling is clearly
	// superior; at low skew the gap closes (uniform slightly preferable).
	base := Params{G: 3, Sigma: 0.3, C: 50, N: 1e5, TotalBudget: 2e4, Gamma: 0.5}
	pts, err := SweepZ(base, []float64{0.2, 1.8})
	if err != nil {
		t.Fatal(err)
	}
	lowGap := pts[0].Eu - pts[0].Esg
	highGap := pts[1].Eu - pts[1].Esg
	if highGap <= lowGap {
		t.Errorf("small-group advantage did not grow with skew: low %g high %g", lowGap, highGap)
	}
	if pts[1].Esg >= pts[1].Eu {
		t.Errorf("at z=1.8 Esg %g should beat Eu %g", pts[1].Esg, pts[1].Eu)
	}
}

func TestMetricEvaluateBounded(t *testing.T) {
	// Metric-semantics errors are probabilities of relative error mass, so
	// they stay within [0, 1].
	for _, z := range []float64{0, 1, 2, 3} {
		p := Params{G: 2, Sigma: 0.5, C: 50, Z: z, N: 1e5, TotalBudget: 1e3, Gamma: 0.5}
		pt, err := Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{pt.Eu, pt.Esg} {
			if v < 0 || v > 1 {
				t.Errorf("z=%g: value %g out of [0,1]", z, v)
			}
		}
	}
}

func TestRawUnboundedAtHighSkew(t *testing.T) {
	p := Params{G: 3, Sigma: 0.3, C: 50, Z: 2.5, N: 1e8, TotalBudget: 1e6, Gamma: 0.5}
	pt, err := evaluate(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Eu <= 1 {
		t.Errorf("raw Eu = %g, expected to exceed 1 at extreme skew", pt.Eu)
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{G: 0, Sigma: 1, C: 2, N: 10, TotalBudget: 5},
		{G: 1, Sigma: 0, C: 2, N: 10, TotalBudget: 5},
		{G: 1, Sigma: 2, C: 2, N: 10, TotalBudget: 5},
		{G: 1, Sigma: 1, C: 0, N: 10, TotalBudget: 5},
		{G: 1, Sigma: 1, C: 2, Z: -1, N: 10, TotalBudget: 5},
		{G: 1, Sigma: 1, C: 2, N: 0, TotalBudget: 5},
		{G: 1, Sigma: 1, C: 2, N: 10, TotalBudget: 0},
		{G: 1, Sigma: 1, C: 2, N: 10, TotalBudget: 20},
		{G: 1, Sigma: 1, C: 2, N: 10, TotalBudget: 5, Gamma: -1},
	}
	for i, p := range bad {
		if _, err := Evaluate(p); err == nil {
			t.Errorf("params %d not rejected: %+v", i, p)
		}
	}
}

func TestSweepsPropagateErrors(t *testing.T) {
	if _, err := SweepGamma(Params{}, []float64{0}); err == nil {
		t.Error("SweepGamma did not propagate validation error")
	}
	if _, err := SweepZ(Params{}, []float64{0}); err == nil {
		t.Error("SweepZ did not propagate validation error")
	}
}
