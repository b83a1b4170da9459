package sample

import (
	"math"
	"testing"
	"testing/quick"

	"dynsample/internal/randx"
)

func TestReservoirUnderfill(t *testing.T) {
	r := NewReservoir(10, randx.New(1))
	for i := 0; i < 5; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 5 {
		t.Fatalf("items = %d, want 5", len(r.Items()))
	}
	if r.Seen() != 5 {
		t.Fatalf("seen = %d", r.Seen())
	}
	for i, v := range r.Items() {
		if v != i {
			t.Fatalf("underfilled reservoir should hold the stream prefix, got %v", r.Items())
		}
	}
}

func TestReservoirExactSize(t *testing.T) {
	r := NewReservoir(100, randx.New(2))
	for i := 0; i < 100000; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 100 {
		t.Fatalf("items = %d, want 100", len(r.Items()))
	}
	seen := make(map[int]bool)
	for _, v := range r.Items() {
		if v < 0 || v >= 100000 {
			t.Fatalf("out-of-range item %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate item %d", v)
		}
		seen[v] = true
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Every element of a 20-element stream should land in a 5-slot reservoir
	// with probability 1/4.
	const trials = 40000
	counts := make([]int, 20)
	rng := randx.New(3)
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir(5, rng)
		for i := 0; i < 20; i++ {
			r.Offer(i)
		}
		for _, v := range r.Items() {
			counts[v]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.25) > 0.015 {
			t.Errorf("element %d selected with frequency %.4f, want ~0.25", i, got)
		}
	}
}

func TestReservoirZeroCapacity(t *testing.T) {
	r := NewReservoir(0, randx.New(1))
	for i := 0; i < 10; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 0 {
		t.Fatal("zero-capacity reservoir holds items")
	}
}

func TestReservoirNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReservoir(-1, randx.New(1))
}

func TestFixedSize(t *testing.T) {
	rng := randx.New(6)
	got := FixedSize(rng, 1000, 100)
	if len(got) != 100 {
		t.Fatalf("size = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("FixedSize output not strictly increasing")
		}
	}
	if all := FixedSize(rng, 5, 10); len(all) != 5 {
		t.Errorf("k>n should return all, got %d", len(all))
	}
}

func TestFixedSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		n, k := 50, 13
		got := FixedSize(rng, n, k)
		if len(got) != k {
			return false
		}
		for i, v := range got {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && got[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFixedSizeUniformity(t *testing.T) {
	rng := randx.New(7)
	const trials = 30000
	counts := make([]int, 10)
	for tr := 0; tr < trials; tr++ {
		for _, v := range FixedSize(rng, 10, 3) {
			counts[v]++
		}
	}
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-0.3) > 0.015 {
			t.Errorf("index %d frequency %.4f, want ~0.3", i, got)
		}
	}
}

func TestProportionalAllocation(t *testing.T) {
	a := ProportionalAllocation([]int64{90, 10}, 10)
	if math.Abs(a.Rates[0]-0.1) > 1e-12 || math.Abs(a.Rates[1]-0.1) > 1e-12 {
		t.Errorf("rates = %v, want [0.1 0.1]", a.Rates)
	}
}

func TestEqualAllocation(t *testing.T) {
	a := EqualAllocation([]int64{90, 10}, 10)
	// Each stratum gets 5 expected rows: rates 5/90 and 5/10.
	if math.Abs(a.Rates[0]-5.0/90) > 1e-12 {
		t.Errorf("rate[0] = %g", a.Rates[0])
	}
	if math.Abs(a.Rates[1]-0.5) > 1e-12 {
		t.Errorf("rate[1] = %g", a.Rates[1])
	}
	// Empty strata get nothing and don't consume budget shares.
	b := EqualAllocation([]int64{0, 10}, 5)
	if b.Rates[0] != 0 {
		t.Errorf("empty stratum rate = %g", b.Rates[0])
	}
	if math.Abs(b.Rates[1]-0.5) > 1e-12 {
		t.Errorf("rate for lone stratum = %g", b.Rates[1])
	}
}

func TestEqualAllocationCapsAtOne(t *testing.T) {
	a := EqualAllocation([]int64{2, 1000}, 100)
	if a.Rates[0] != 1 {
		t.Errorf("tiny stratum rate = %g, want capped 1", a.Rates[0])
	}
}

func TestCongressAllocationExpectedSize(t *testing.T) {
	sizes := []int64{1000, 100, 10, 1}
	const total = 100
	a := CongressAllocation(sizes, total)
	expected := 0.0
	for i, s := range sizes {
		expected += a.Rates[i] * float64(s)
	}
	// Expected sample size should be close to the budget (clamping at rate 1
	// can leave it slightly under).
	if expected > total+1e-9 || expected < total*0.7 {
		t.Errorf("expected sample size %g for budget %d", expected, total)
	}
	// Small strata must get a larger rate than big strata.
	for i := 1; i < len(sizes); i++ {
		if a.Rates[i] < a.Rates[i-1]-1e-12 {
			t.Errorf("rates not increasing for smaller strata: %v", a.Rates)
		}
	}
}

func TestAllocationZeroSizes(t *testing.T) {
	a := ProportionalAllocation([]int64{0, 0}, 10)
	if a.Rates[0] != 0 || a.Rates[1] != 0 {
		t.Errorf("rates = %v", a.Rates)
	}
	b := CongressAllocation(nil, 10)
	if len(b.Rates) != 0 {
		t.Errorf("rates = %v", b.Rates)
	}
}
