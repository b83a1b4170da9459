package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachCtxMatchesForEachErr: with a live context, ForEachCtx runs every
// task and picks the deterministic (lowest-index) error.
func TestForEachCtxMatchesForEachErr(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var ran atomic.Int64
		err := ForEachCtx(context.Background(), workers, 20, func(i int) error {
			ran.Add(1)
			if i == 7 || i == 13 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d tasks, want 20", workers, ran.Load())
		}
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index task error", workers, err)
		}
	}
}

// TestForEachCtxCancelStopsHandout: once a task cancels the context, no new
// task starts and the call reports ctx.Err().
func TestForEachCtxCancelStopsHandout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 1, 100, func(i int) error {
		ran.Add(1)
		if i == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("ran %d tasks after cancel at index 4 with 1 worker, want 5", got)
	}
}

// TestForEachCtxPreCancelled: a dead context runs nothing.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEachCtx(ctx, workers, 10, func(i int) error { ran.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: ran %d tasks on a dead context", workers, ran.Load())
		}
	}
}

// TestForEachCtxCompletedIgnoresLateCancel: if every task finished, a cancel
// racing the return must not mask task results.
func TestForEachCtxCompletedIgnoresLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachCtx(ctx, 2, 5, func(i int) error {
		if i == 4 {
			defer cancel() // cancelled only as the final task returns
		}
		return nil
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestForEachCtxContainsPanic: a panicking task becomes that task's error
// instead of crashing the process — load-bearing for the HTTP server, whose
// scan workers run outside any net/http recover.
func TestForEachCtxContainsPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), workers, 8, func(i int) error {
			if i == 2 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "task 2 panicked: kaboom") {
			t.Fatalf("workers=%d: err = %v, want contained panic from task 2", workers, err)
		}
	}
}
