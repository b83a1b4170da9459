package engine

import (
	"context"
	"runtime"
	"sync"

	"dynsample/internal/bitmask"
	"dynsample/internal/faults"
	"dynsample/internal/parallel"
)

// ExecOptions modify a query execution against a sample table, implementing
// the rewriting knob of §4.2.2 that survives in the engine: scaling aggregate
// values by the inverse sampling rate. (The paper's other knob, the
// "WHERE bitmask & m = 0" filter, is the owner test on the group key that
// core.ExecutePlanCtx applies after the scan; sample rows store no mask.)
type ExecOptions struct {
	// Scale multiplies every aggregate contribution. Zero means 1 (no
	// scaling), so the zero value of ExecOptions is exact execution.
	Scale float64
	// ExcludeMask is ignored: no scan filters rows by a membership mask. The
	// field stays only for a benchmark harness that still sets it, and goes
	// with ROADMAP item 18.
	ExcludeMask bitmask.Mask
	// MarkExact marks every produced group as exact (used for small group
	// tables, which are not downsampled).
	MarkExact bool
	// MaxRows, when > 0, scans only the first MaxRows rows of the source:
	// the planner's sampling-fraction knob over an overall sample, which is
	// a uniform subsample of it only when the sample's row order is
	// independent of the data. The caller compensates by raising Scale.
	MaxRows int
	// Workers is how many goroutines scan concurrently; values below 1
	// (including the zero value) mean 1, which runs inline on the calling
	// goroutine. The source is split into fixed row-range shards
	// (ScanShardRows rows each) and the per-shard partial Results are
	// merged in shard order. Because the shard boundaries and the merge
	// order depend only on the source size — never on Workers — answers are
	// bit-identical for every worker count.
	Workers int
}

// ScanShardRows is the row-range shard size of the partitioned scan kernel.
// It is a constant, not derived from the worker count, so that shard
// boundaries (and therefore floating-point summation order) are a pure
// function of the source — the determinism guarantee of ExecOptions.Workers.
const ScanShardRows = 16384

// ExecuteCtx runs a group-by aggregation query against a source. Per-row
// weights (for weighted samples) are always honoured; uniform sources have
// weight 1. The result's group values are sums of weight*Scale*x where x is
// 1 for COUNT and the measure value for SUM.
//
// The scan is partitioned into row-range shards evaluated by up to
// opt.Workers goroutines (see ExecOptions.Workers); sources and predicates
// are only read, so a single source may serve many calls at once.
//
// Cancellation is observed between shard tasks, never inside a shard, so an
// uncancelled call's answers are bit-identical for every worker count. When
// ctx is cancelled or its deadline passes mid-scan, ExecuteCtx returns
// ctx.Err() promptly (in-flight shards finish first) and no partial result.
func ExecuteCtx(ctx context.Context, src Source, q *Query, opt ExecOptions) (*Result, error) {
	scale := opt.Scale
	if scale == 0 {
		scale = 1
	}
	bound, err := bindQuery(src, q)
	if err != nil {
		return nil, err
	}
	n := src.NumRows()
	if opt.MaxRows > 0 && opt.MaxRows < n {
		n = opt.MaxRows
	}
	shards := parallel.Shards(n, ScanShardRows)
	// Fold in shard order: per-group accumulation order is then a pure
	// function of the shard boundaries, independent of the worker count. A
	// shard's table is folded in as soon as every earlier shard is, so only
	// the out-of-order ones stay live, and a folded one goes back to idle for
	// the next shard: a worker's state is allocated once per scan.
	var (
		mu    sync.Mutex
		total = bound.newTable()
		next  int
		done  = make([]*shardScan, len(shards))
		idle  []*shardScan
	)
	err = parallel.ForEachCtx(ctx, opt.Workers, len(shards), func(i int) error {
		faults.Fire(ctx, faults.PointScanShard, i)
		if err := ctx.Err(); err != nil {
			return err
		}
		var s *shardScan
		mu.Lock()
		if k := len(idle) - 1; k >= 0 {
			s, idle = idle[k], idle[:k]
		}
		mu.Unlock()
		if s == nil {
			s = bound.newShardScan()
		}
		s.scan(bound, scale, shards[i].Lo, shards[i].Hi)
		mu.Lock()
		defer mu.Unlock()
		for done[i] = s; next < len(done) && done[next] != nil; next++ {
			p := done[next]
			p.to = total.fold(p.groups, p.to)
			idle = append(idle, p)
			done[next] = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range idle {
		s.release()
	}
	res := bound.result(total, opt.MarkExact)
	observeScan(res.RowsScanned, len(shards))
	return res, nil
}

// ExecuteExact runs a query against the base database with no sampling; the
// ground truth for accuracy experiments. It is ExecuteExactCtx with a
// background context.
func ExecuteExact(db *Database, q *Query) (*Result, error) {
	return ExecuteExactCtx(context.Background(), db, q)
}

// ExecuteExactCtx is ExecuteExact under a context; see ExecuteCtx for the
// cancellation granularity. It scans on every core (runtime.GOMAXPROCS),
// which changes no answer: see ExecOptions.Workers.
func ExecuteExactCtx(ctx context.Context, db *Database, q *Query) (*Result, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	return ExecuteCtx(ctx, db, q, ExecOptions{MarkExact: true, Workers: runtime.GOMAXPROCS(0)})
}
