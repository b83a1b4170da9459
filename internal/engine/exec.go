package engine

import (
	"context"
	"fmt"
	"sync"

	"dynsample/internal/bitmask"
	"dynsample/internal/faults"
	"dynsample/internal/parallel"
)

// ExecOptions modify a query execution against a sample table, implementing
// the rewriting knobs of §4.2.2: scaling aggregate values by the inverse
// sampling rate and filtering out rows already counted by an earlier sample
// table via the bitmask field.
type ExecOptions struct {
	// Scale multiplies every aggregate contribution. Zero means 1 (no
	// scaling), so the zero value of ExecOptions is exact execution.
	Scale float64
	// ExcludeMask, when non-empty, skips any row whose membership mask
	// shares a bit with it — the "WHERE bitmask & m = 0" filter.
	ExcludeMask bitmask.Mask
	// MarkExact marks every produced group as exact (used for small group
	// tables, which are not downsampled).
	MarkExact bool
	// MaxRows, when > 0, scans only the first MaxRows rows of the source.
	// Over a reservoir sample — whose slots are exchangeable — the prefix is
	// itself a uniform sample, so this is the planner's sampling-fraction
	// knob; the caller compensates by raising Scale.
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

// boundQuery holds a query's columns resolved against one source: group-by
// and aggregate accessors plus predicate bindings. Accessors are read-only
// and therefore shared freely across scan workers.
type boundQuery struct {
	groupAccs []ColumnAccessor
	aggAccs   []ColumnAccessor
	preds     []boundPred
}

type boundPred struct {
	acc ColumnAccessor
	p   Predicate
}

func bindQuery(src Source, q *Query) (*boundQuery, error) {
	b := &boundQuery{
		groupAccs: make([]ColumnAccessor, len(q.GroupBy)),
		aggAccs:   make([]ColumnAccessor, len(q.Aggs)),
		preds:     make([]boundPred, len(q.Where)),
	}
	for i, g := range q.GroupBy {
		acc, err := src.Accessor(g)
		if err != nil {
			return nil, fmt.Errorf("group-by column: %w", err)
		}
		b.groupAccs[i] = acc
	}
	for i, a := range q.Aggs {
		if a.Kind == Sum {
			acc, err := src.Accessor(a.Col)
			if err != nil {
				return nil, fmt.Errorf("aggregate column: %w", err)
			}
			b.aggAccs[i] = acc
		}
	}
	for i, p := range q.Where {
		acc, err := src.Accessor(p.Column())
		if err != nil {
			return nil, fmt.Errorf("predicate column: %w", err)
		}
		b.preds[i] = boundPred{acc: acc, p: p}
	}
	return b, nil
}

// Execute runs a group-by aggregation query against a source. Per-row
// weights (for weighted samples) are always honoured; uniform sources have
// weight 1. The result's group values are sums of weight*Scale*x where x is
// 1 for COUNT and the measure value for SUM.
//
// The scan is partitioned into row-range shards evaluated by up to
// opt.Workers goroutines (see ExecOptions.Workers); sources and predicates
// are only read, so a single source may serve many Execute calls at once.
//
// Execute is ExecuteCtx with a background context — it cannot be cancelled.
func Execute(src Source, q *Query, opt ExecOptions) (*Result, error) {
	return ExecuteCtx(context.Background(), src, q, opt)
}

// ExecuteCtx is Execute under a context. Cancellation is observed between
// shard tasks, never inside a shard, so an uncancelled ExecuteCtx returns
// answers bit-identical to Execute for every worker count. When ctx is
// cancelled or its deadline passes mid-scan, ExecuteCtx returns ctx.Err()
// promptly (in-flight shards finish first) and no partial result.
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
	// Merge in shard order: per-group accumulation order is then a pure
	// function of the shard boundaries, independent of the worker count. A
	// partial is folded in as soon as every earlier shard is, so only the
	// out-of-order ones stay live, not one per shard.
	var (
		mu       sync.Mutex
		res      *Result
		next     int
		partials = make([]*Result, len(shards))
	)
	err = parallel.ForEachCtx(ctx, opt.Workers, len(shards), func(i int) error {
		faults.Fire(ctx, faults.PointScanShard, i)
		if err := ctx.Err(); err != nil {
			return err
		}
		p := executeRange(src, q, bound, opt, scale, shards[i].Lo, shards[i].Hi)
		mu.Lock()
		defer mu.Unlock()
		for partials[i] = p; next < len(partials) && partials[next] != nil; next++ {
			if res == nil {
				res = partials[next]
			} else {
				res.merge(partials[next], true)
			}
			partials[next] = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res == nil { // empty source
		res = NewResult(q.GroupBy, q.Aggs)
	}
	observeScan(res.RowsScanned, len(shards))
	return res, nil
}

// executeRange is the scan kernel: it evaluates the query over source rows
// [lo, hi) into a fresh Result. It allocates its own key buffers, reads the
// source and predicates but mutates nothing shared, and is therefore safe to
// run concurrently with other ranges of the same source.
func executeRange(src Source, q *Query, bound *boundQuery, opt ExecOptions, scale float64, lo, hi int) *Result {
	res := NewResult(q.GroupBy, q.Aggs)
	scanRange(res, src, q, bound, opt, scale, lo, hi)
	return res
}

// scanRange evaluates source rows [lo, hi) into res, which must have been
// built for the same query shape.
func scanRange(res *Result, src Source, q *Query, bound *boundQuery, opt ExecOptions, scale float64, lo, hi int) {
	keyVals := make([]Value, len(q.GroupBy))
	keyBuf := make([]byte, 0, 64)
	filtering := opt.ExcludeMask.Width() > 0

rows:
	for row := lo; row < hi; row++ {
		if filtering {
			if m, ok := src.RowMask(row); ok && m.Intersects(opt.ExcludeMask) {
				continue
			}
		}
		res.RowsScanned++
		for _, bp := range bound.preds {
			if !bp.p.Matches(bp.acc.Value(row)) {
				continue rows
			}
		}
		res.RowsMatched++

		for i, acc := range bound.groupAccs {
			keyVals[i] = acc.Value(row)
		}
		keyBuf = AppendKey(keyBuf[:0], keyVals)
		g, ok := res.lookup(keyBuf)
		if !ok {
			g = res.insert(string(keyBuf), append([]Value(nil), keyVals...))
		}

		w := src.RowWeight(row) * scale
		for i := range q.Aggs {
			x := 1.0
			if q.Aggs[i].Kind == Sum {
				x = bound.aggAccs[i].Float(row)
			}
			g.Vals[i] += w * x
			g.RawSum[i] += x
			g.RawSumSq[i] += x * x
			g.VarAcc[i] += w * (w - 1) * x * x
		}
		g.RawRows++
		if opt.MarkExact {
			g.Exact = true
		}
	}
}

// ExecuteExact runs a query against the base database with no sampling; the
// ground truth for accuracy experiments. It is ExecuteExactCtx with a
// background context.
func ExecuteExact(db *Database, q *Query) (*Result, error) {
	return ExecuteExactCtx(context.Background(), db, q)
}

// ExecuteExactCtx is ExecuteExact under a context; see ExecuteCtx for the
// cancellation granularity.
func ExecuteExactCtx(ctx context.Context, db *Database, q *Query) (*Result, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	res, err := ExecuteCtx(ctx, db, q, ExecOptions{})
	if err != nil {
		return nil, err
	}
	for _, g := range res.Groups() {
		g.Exact = true
	}
	return res, nil
}
