package randx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestZipfProbsSumToOne(t *testing.T) {
	for _, tc := range []struct {
		z float64
		c int
	}{{0, 1}, {0, 10}, {1, 50}, {1.8, 50}, {2.5, 1000}} {
		z := NewZipf(tc.z, tc.c)
		sum := 0.0
		for i := 0; i < z.N(); i++ {
			sum += z.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("z=%g c=%d: probs sum to %g", tc.z, tc.c, sum)
		}
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z := NewZipf(1.5, 100)
	for i := 1; i < z.N(); i++ {
		if z.Prob(i) > z.Prob(i-1) {
			t.Fatalf("prob[%d]=%g > prob[%d]=%g", i, z.Prob(i), i-1, z.Prob(i-1))
		}
	}
}

func TestZipfZeroSkewIsUniform(t *testing.T) {
	z := NewZipf(0, 20)
	for i := 0; i < 20; i++ {
		if math.Abs(z.Prob(i)-0.05) > 1e-12 {
			t.Fatalf("prob[%d] = %g, want 0.05", i, z.Prob(i))
		}
	}
}

func TestZipfRatios(t *testing.T) {
	// P(1)/P(2) should be 2^z for the top two values.
	z := NewZipf(2.0, 50)
	ratio := z.Prob(0) / z.Prob(1)
	if math.Abs(ratio-4.0) > 1e-9 {
		t.Fatalf("P(0)/P(1) = %g, want 4", ratio)
	}
}

func TestZipfDrawEmpirical(t *testing.T) {
	z := NewZipf(1.0, 10)
	rng := New(42)
	const n = 200000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[z.Draw(rng)]++
	}
	for i := 0; i < 10; i++ {
		got := float64(counts[i]) / n
		want := z.Prob(i)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("value %d: empirical %g, expected %g", i, got, want)
		}
	}
}

func TestZipfDrawInRange(t *testing.T) {
	f := func(seed int64) bool {
		z := NewZipf(1.8, 7)
		rng := New(seed)
		for i := 0; i < 100; i++ {
			v := z.Draw(rng)
			if v < 0 || v >= 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(1, 0) },
		func() { NewZipf(-0.5, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCategoricalEmpirical(t *testing.T) {
	c := NewCategorical([]float64{1, 2, 7})
	rng := New(7)
	const n = 100000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[c.Draw(rng)]++
	}
	wants := []float64{0.1, 0.2, 0.7}
	for i, w := range wants {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("cat %d: got %g want %g", i, got, w)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, weights := range [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", weights)
				}
			}()
			NewCategorical(weights)
		}()
	}
}

// FuzzInverseCDF: Zipf.Index and Categorical.Index, which start from a
// guide table's entry, and inverse, which tries the head of the CDF in order,
// return what sort.SearchFloat64s returns over the whole CDF — at u = 0, at
// u exactly equal to a CDF entry or just either side of one, at a guide
// slice's edges, and at whatever u in [0, 1] the fuzzer picks. For every u,
// NaN and the infinities too, Index returns what inverse returns.
func FuzzInverseCDF(f *testing.F) {
	f.Add(int64(1), uint8(3), 2.0, 0.5)
	f.Add(int64(2), uint8(8), 0.0, 0.0)
	f.Add(int64(3), uint8(9), 1.2, 0.999)
	f.Add(int64(4), uint8(40), 3.5, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, z, u float64) {
		c := int(n)%40 + 1
		rng := New(seed)
		weights := make([]float64, c)
		for i := range weights {
			if rng.Intn(3) > 0 { // zero weights make repeated CDF entries
				weights[i] = rng.ExpFloat64()
			}
		}
		weights[rng.Intn(c)] = 1
		if z = math.Abs(z); !(z <= 6) {
			z = 2
		}
		for name, d := range map[string]struct {
			cdf   []float64
			index func(float64) int
		}{
			"zipf":        {NewZipf(z, c).cdf, NewZipf(z, c).Index},
			"categorical": {NewCategorical(weights).cdf, NewCategorical(weights).Index},
		} {
			us := []float64{u, 0, 1, math.Nextafter(1, 0), -u, math.NaN(), math.Inf(1), math.Inf(-1)}
			for _, x := range d.cdf {
				us = append(us, x, math.Nextafter(x, 0), math.Nextafter(x, 2))
			}
			for _, j := range []float64{1, 511, 1023} {
				us = append(us, j/guideBuckets, math.Nextafter(j/guideBuckets, 0))
			}
			for _, x := range us {
				if got, want := d.index(x), inverse(d.cdf, x); got != want {
					t.Fatalf("%s over %d values: Index(%v) = %d, inverse %d", name, c, x, got, want)
				}
				if !(x >= 0 && x <= 1) {
					// A variate is in [0, 1). Past 1, float drift can leave CDF
					// entries above the last one, which is set to 1, and a
					// search over an unsorted array has no one answer.
					continue
				}
				if got, want := d.index(x), sort.SearchFloat64s(d.cdf, x); got != want {
					t.Fatalf("%s over %d values: Index(%v) = %d, sort.SearchFloat64s %d", name, c, x, got, want)
				}
			}
		}
	})
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := New(3)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 10}, {100, 17}} {
		got := SampleWithoutReplacement(rng, tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("n=%d k=%d: got %d items", tc.n, tc.k, len(got))
		}
		sort.Ints(got)
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("duplicate index %d", got[i])
			}
		}
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("index %d out of range", v)
			}
		}
	}
}

func TestSampleWithoutReplacementUniformity(t *testing.T) {
	// Each of 10 indices should appear in a 5-of-10 sample about half the time.
	rng := New(11)
	const trials = 20000
	counts := make([]int, 10)
	for i := 0; i < trials; i++ {
		for _, v := range SampleWithoutReplacement(rng, 10, 5) {
			counts[v]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.5) > 0.02 {
			t.Errorf("index %d appears with frequency %g, want ~0.5", i, got)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when k > n")
		}
	}()
	SampleWithoutReplacement(New(1), 3, 4)
}

func TestDeterminism(t *testing.T) {
	z := NewZipf(1.5, 30)
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if z.Draw(a) != z.Draw(b) {
			t.Fatal("same seed produced different draws")
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	rng := New(5)
	for i := 0; i < 1000; i++ {
		if v := LogNormal(rng, 3, 1.5); v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("LogNormal produced %g", v)
		}
	}
}
