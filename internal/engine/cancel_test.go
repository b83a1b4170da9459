package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"dynsample/internal/faults"
)

// TestExecuteCtxBackgroundBitIdentical: an uncancelled ExecuteCtx must agree
// exactly with a repeat of itself, and every worker count — the zero value
// included — must agree exactly with every other.
func TestExecuteCtxBackgroundBitIdentical(t *testing.T) {
	tbl := randomScanTable(11, 3*ScanShardRows+123)
	q := scanQuery()
	var first *Result
	for _, workers := range []int{0, 1, 4} {
		opt := ExecOptions{Scale: 2.5, Workers: workers}
		want, err := ExecuteCtx(context.Background(), tbl, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteCtx(context.Background(), tbl, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, want, got)
		if first == nil {
			first = got
		}
		resultsBitIdentical(t, first, got)
	}
}

// TestExecuteCtxSerialMatchesAcrossWorkers: every worker budget, including
// the non-positive ones that normalise to 1, must agree bit-for-bit.
func TestExecuteCtxSerialMatchesAcrossWorkers(t *testing.T) {
	tbl := randomScanTable(7, 2*ScanShardRows+57)
	q := scanQuery()
	w1, err := ExecuteCtx(context.Background(), tbl, q, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 0, 2, 3, 8} {
		wn, err := ExecuteCtx(context.Background(), tbl, q, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, w1, wn)
	}
}

// TestExecuteCtxCancelled: an already-cancelled context aborts before any
// row is scanned.
func TestExecuteCtxCancelled(t *testing.T) {
	tbl := randomScanTable(3, ScanShardRows+10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 4} {
		if _, err := ExecuteCtx(ctx, tbl, scanQuery(), ExecOptions{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestExecuteCtxDeadlineAbortsSlowScan: with a fault-injected slow shard, a
// deadline much shorter than the injected delays aborts the scan at a shard
// boundary, long before the full scan could have completed.
func TestExecuteCtxDeadlineAbortsSlowScan(t *testing.T) {
	t.Cleanup(faults.Reset)
	tbl := randomScanTable(5, 4*ScanShardRows) // 4 shards
	const perShard = 250 * time.Millisecond    // full scan would stall >= 1s
	faults.Set(faults.PointScanShard, faults.SleepHook(perShard))

	for _, workers := range []int{0, 1, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		start := time.Now()
		_, err := ExecuteCtx(ctx, tbl, scanQuery(), ExecOptions{Workers: workers})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
		// All four shards stalled serially would take >= 4*perShard; prompt
		// cancellation must come back after roughly one shard's stall.
		if elapsed > 2*perShard {
			t.Fatalf("workers=%d: cancellation took %v, want well under %v", workers, elapsed, 4*perShard)
		}
	}
}

// TestExecuteExactCtxCancelled: the exact path observes cancellation too.
func TestExecuteExactCtxCancelled(t *testing.T) {
	tbl := randomScanTable(9, ScanShardRows*2)
	db := MustNewDatabase("d", tbl)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteExactCtx(ctx, db, scanQuery()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteCtxCancelBetweenShards: the block kernel observes cancellation
// at shard boundaries only. A context cancelled as shard 2 is handed out
// stops the scan there — shards 0 and 1 ran whole, shard 3 never starts —
// and no partial result comes back.
func TestExecuteCtxCancelBetweenShards(t *testing.T) {
	t.Cleanup(faults.Reset)
	tbl := randomScanTable(13, 4*ScanShardRows)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired []int
	faults.Set(faults.PointScanShard, func(_ context.Context, i int) {
		fired = append(fired, i)
		if i == 2 {
			cancel()
		}
	})
	res, err := ExecuteCtx(ctx, tbl, scanQuery(), ExecOptions{Workers: 1})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res = %v, err = %v; want nil, context.Canceled", res, err)
	}
	if len(fired) != 3 || fired[2] != 2 {
		t.Fatalf("shards handed out: %v, want [0 1 2]", fired)
	}
}
