package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"dynsample/internal/engine"
)

// TestSwapPreparedConcurrentQueries hammers ApproxCtx from many goroutines
// while the registered state is swapped between two generations. Under
// -race this proves the hot-swap path has no data races; the assertions
// prove every query ran entirely against one generation (its answer matches
// one of the two states bit-for-bit, never a blend) and that zero queries
// failed across the swaps.
func TestSwapPreparedConcurrentQueries(t *testing.T) {
	db := skewedDB(t, 8000)
	p1 := prep(t, db, SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, Workers: 2})
	p2 := prep(t, db, SmallGroupConfig{BaseRate: 0.05, DistinctLimit: 100, Seed: 9, Workers: 2})

	sys := NewSystem(db)
	sys.AddPrepared("smallgroup", p1)

	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}
	want1, err := p1.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := p2.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if sameAnswer(want1, want2) {
		t.Fatal("fixture states answer identically; swap would be unobservable")
	}

	const queriers = 8
	var failures, gen1Hits, gen2Hits atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := sys.ApproxCtx(context.Background(), "smallgroup", q)
				if err != nil {
					failures.Add(1)
					t.Error(err)
					return
				}
				switch {
				case sameAnswer(ans, want1):
					gen1Hits.Add(1)
				case sameAnswer(ans, want2):
					gen2Hits.Add(1)
				default:
					failures.Add(1)
					t.Error("answer matches neither generation: torn swap")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			sys.SwapPrepared("smallgroup", p2)
		} else {
			sys.SwapPrepared("smallgroup", p1)
		}
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failed queries during swaps", failures.Load())
	}
	if gen1Hits.Load() == 0 || gen2Hits.Load() == 0 {
		t.Logf("generation coverage: %d/%d hits (timing-dependent)", gen1Hits.Load(), gen2Hits.Load())
	}
	if prev, err := sys.SwapPrepared("smallgroup", p2); err != nil || prev != p1 {
		t.Fatalf("SwapPrepared returned %v (%v), want the previous state", prev, err)
	}
}

// sameAnswer reports whether two answers are bit-identical over groups,
// values and exactness.
func sameAnswer(a, b *Answer) bool {
	if a.Result.NumGroups() != b.Result.NumGroups() {
		return false
	}
	for _, k := range a.Result.Keys() {
		ga, gb := a.Result.Group(k), b.Result.Group(k)
		if gb == nil || ga.Exact != gb.Exact || len(ga.Vals) != len(gb.Vals) {
			return false
		}
		for i := range ga.Vals {
			if ga.Vals[i] != gb.Vals[i] {
				return false
			}
		}
	}
	return true
}

// TestSwapPreparedRegistration covers the copy-on-write bookkeeping:
// strategies/prepared views reflect swaps, and PreprocessTime survives
// unrelated updates.
func TestSwapPreparedRegistration(t *testing.T) {
	db := skewedDB(t, 2000)
	sys := NewSystem(db)
	if prev, err := sys.SwapPrepared("smallgroup", prep(t, db, SmallGroupConfig{BaseRate: 0.05, Seed: 1})); err != nil || prev != nil {
		t.Fatalf("first swap returned %v (%v), want nil", prev, err)
	}
	if names := sys.Strategies(); len(names) != 1 || names[0] != "smallgroup" {
		t.Fatalf("strategies = %v", names)
	}
	if err := sys.AddStrategy(NewSmallGroup(SmallGroupConfig{BaseRate: 0.02, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	if d := sys.PreprocessTime("smallgroup"); d <= 0 {
		t.Fatalf("PreprocessTime = %v after AddStrategy", d)
	}
	p, ok := sys.Prepared("smallgroup")
	if !ok || p == nil {
		t.Fatal("Prepared lookup failed after swaps")
	}
}
