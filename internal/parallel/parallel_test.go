package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 10, 1},   // 0 means 1 worker
		{-3, 10, 1},  // so does a negative budget
		{4, 10, 4},   // budget below n passes through
		{16, 10, 10}, // capped at n
		{4, 0, 4},    // n == 0: nothing to cap against
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := Normalize(c.workers, c.n); got != c.want {
			t.Errorf("Normalize(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		hits := make([]atomic.Int64, n)
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	called := false
	ForEach(8, 0, func(int) { called = true })
	if called {
		t.Fatal("fn called with n=0")
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	var completed atomic.Int64
	err := ForEachErr(8, 100, func(i int) error {
		completed.Add(1)
		switch i {
		case 7:
			return errLow
		case 93:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
	// All tasks run to completion even after a failure.
	if got := completed.Load(); got != 100 {
		t.Fatalf("%d tasks completed, want 100", got)
	}
	if err := ForEachErr(8, 100, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestShards(t *testing.T) {
	if got := Shards(0, 16); got != nil {
		t.Fatalf("Shards(0, 16) = %v, want nil", got)
	}
	if got := Shards(10, 0); len(got) != 1 || got[0] != (Shard{0, 10}) {
		t.Fatalf("Shards(10, 0) = %v, want one full-range shard", got)
	}
	// Boundaries depend only on n and size; cover exact multiples and ragged tails.
	for _, c := range []struct{ n, size, want int }{
		{10, 3, 4}, {12, 3, 4}, {1, 16384, 1}, {16384, 16384, 1}, {16385, 16384, 2},
	} {
		shards := Shards(c.n, c.size)
		if len(shards) != c.want {
			t.Fatalf("Shards(%d, %d): %d shards, want %d", c.n, c.size, len(shards), c.want)
		}
		prev := 0
		for _, s := range shards {
			if s.Lo != prev || s.Hi <= s.Lo || s.Hi-s.Lo > c.size {
				t.Fatalf("Shards(%d, %d): bad shard %+v after %d", c.n, c.size, s, prev)
			}
			prev = s.Hi
		}
		if prev != c.n {
			t.Fatalf("Shards(%d, %d): covered %d rows", c.n, c.size, prev)
		}
	}
}
