// Package parallel provides the small worker-pool primitives shared by the
// engine's partitioned scans, the middleware's rewritten-query fan-out and
// the pre-processing phase.
//
// The package deliberately contains no clever scheduling: callers decide the
// unit of work (a row-range shard, a rewrite step, a sample-table build) and
// parallel runs those units on a bounded number of goroutines. Every helper
// is deterministic in its outputs — results are always collected positionally
// (slot i holds task i's output), so callers that combine partial results in
// index order get answers independent of the worker count and of goroutine
// scheduling.
//
// It also holds the one retry schedule the self-healing latches share (the
// ingest WAL's degraded mode and the shard circuit breaker): ProbeUntil's
// jittered doubling between MaxBackoff-capped probes.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default worker budget: the number of logical
// CPUs. This is what the -workers flags of aqpd and aqpcli default to.
func DefaultWorkers() int { return runtime.NumCPU() }

// Normalize clamps a worker budget for n units of work. Non-positive budgets
// mean 1 worker (inline on the calling goroutine); callers that want
// hardware parallelism pass DefaultWorkers explicitly (as the -workers flags
// do by default). The result never exceeds n: spawning more goroutines than
// units is pure overhead.
func Normalize(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > n && n > 0 {
		workers = n
	}
	return workers
}

// ForEach runs fn(0), ..., fn(n-1) on up to workers goroutines and returns
// when all calls have finished. Work is handed out by an atomic counter, so
// which goroutine runs which index is nondeterministic — fn must write its
// output to a caller-provided slot indexed by i (never to shared state) for
// the overall computation to stay deterministic. With workers <= 1 (or n <= 1)
// everything runs inline on the calling goroutine, with no synchronisation.
func ForEach(workers, n int, fn func(i int)) {
	workers = Normalize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachCtx is ForEach for fallible tasks under a context: it runs fn(0),
// ..., fn(n-1) on up to workers goroutines, but stops handing out new tasks
// once ctx is done. Tasks already started always run to completion —
// cancellation is observed between tasks, never inside one — so a caller
// whose context stays live runs every task, with bit-identical outputs.
//
// The returned error is ctx.Err() if the context was cancelled before all n
// tasks completed; otherwise the error from the lowest task index (a
// deterministic choice, independent of scheduling), or nil. A panicking task
// does not crash the process: the panic is recovered on the worker goroutine
// and reported as that task's error.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	var started atomic.Int64
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = fmt.Errorf("parallel: task %d panicked: %v", i, v)
			}
		}()
		errs[i] = fn(i)
	}

	workers = Normalize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			started.Add(1)
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					started.Add(1)
					run(i)
				}
			}()
		}
		wg.Wait()
	}

	if err := ctx.Err(); err != nil && int(started.Load()) < n {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shard is a half-open row range [Lo, Hi).
type Shard struct {
	Lo, Hi int
}

// Shards splits n rows into ranges of at most size rows each. The boundaries
// depend only on n and size — never on the worker count — which is what makes
// sharded scans bit-identical across worker counts: per-shard partial results
// are always the same, and callers merge them in shard order.
func Shards(n, size int) []Shard {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = n
	}
	out := make([]Shard, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Shard{Lo: lo, Hi: hi})
	}
	return out
}
