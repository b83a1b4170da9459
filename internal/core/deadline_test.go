package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dynsample/internal/engine"
	"dynsample/internal/faults"
)

func deadlineQuery() *engine.Query {
	return &engine.Query{
		GroupBy: []string{"a"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}},
	}
}

// TestAnswerCtxNoDeadlineUnchanged: without a deadline, AnswerCtx is exactly
// Answer — same plan, no degradation, bit-identical values.
func TestAnswerCtxNoDeadlineUnchanged(t *testing.T) {
	db := skewedDB(t, 20000)
	// ScanRowsPerSecond=1 would degrade any deadline-bearing query; with no
	// deadline it must have no effect at all.
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, ScanRowsPerSecond: 1})
	q := deadlineQuery()
	want, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.AnswerCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("degraded without a deadline")
	}
	if len(got.Rewrite.Steps) != len(want.Rewrite.Steps) {
		t.Fatalf("plan steps %d != %d", len(got.Rewrite.Steps), len(want.Rewrite.Steps))
	}
	for _, k := range want.Result.Keys() {
		wg, gg := want.Result.Group(k), got.Result.Group(k)
		if gg == nil || wg.Vals[0] != gg.Vals[0] || wg.Vals[1] != gg.Vals[1] {
			t.Fatalf("group %q differs: %v vs %v", k, wg, gg)
		}
	}
}

// TestAnswerCtxDegradesUnderDeadlinePressure: a throughput estimate of one
// row per second makes any realistic deadline too small for the full plan,
// so AnswerCtx must fall back to the overall-sample-only plan, flag the
// answer Degraded, and still finish well within the (generous) deadline.
func TestAnswerCtxDegradesUnderDeadlinePressure(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, ScanRowsPerSecond: 1})
	q := deadlineQuery()

	full, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rewrite.Steps) < 2 {
		t.Fatalf("fixture too small: full plan has %d steps, need >= 2", len(full.Rewrite.Steps))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := p.AnswerCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded {
		t.Fatal("answer not degraded despite impossible row budget")
	}
	if len(got.Rewrite.Steps) != 1 {
		t.Fatalf("degraded plan has %d steps, want 1 (overall sample only)", len(got.Rewrite.Steps))
	}
	if name := got.Rewrite.Steps[0].Name; !strings.Contains(name, "overall") {
		t.Fatalf("degraded plan reads %q, want the overall sample", name)
	}
	if got.RowsRead >= full.RowsRead {
		t.Fatalf("degraded plan read %d rows, full plan %d — degradation must be cheaper", got.RowsRead, full.RowsRead)
	}
	// The degraded estimates are plain uniform-sample estimates: they must
	// match executing the overall-sample-only plan directly.
	want, _, err := ExecutePlanCtx(context.Background(), &RewritePlan{Query: q, Steps: []RewriteStep{{
		Source: p.overall.src, Name: p.overall.name, Scale: p.overallScale,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range want.Keys() {
		wg, gg := want.Group(k), got.Result.Group(k)
		if gg == nil || wg.Vals[0] != gg.Vals[0] {
			t.Fatalf("degraded group %q = %v, want uniform estimate %v", k, gg, wg)
		}
		if gg.Exact {
			t.Fatalf("degraded group %q marked exact", k)
		}
	}
}

// TestAnswerCtxAmpleBudgetNotDegraded: with a huge throughput estimate the
// same deadline leaves the full plan untouched.
func TestAnswerCtxAmpleBudgetNotDegraded(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, ScanRowsPerSecond: 1e12})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := p.AnswerCtx(ctx, deadlineQuery())
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("degraded despite ample row budget")
	}
	if len(got.Rewrite.Steps) < 2 {
		t.Fatalf("full plan lost steps: %d", len(got.Rewrite.Steps))
	}
}

// TestExecutePlanCtxCancelled: a dead context aborts the plan.
func TestExecutePlanCtxCancelled(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ExecutePlanCtx(ctx, p.Plan(deadlineQuery())); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecutePlanCtxPanickingStepContained: a fault-injected panic inside a
// rewrite step, running on pool goroutines, surfaces as an error — not a
// process crash.
func TestExecutePlanCtxPanickingStepContained(t *testing.T) {
	t.Cleanup(faults.Reset)
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, Workers: 4})
	faults.Set(faults.PointPlanStep, faults.PanicHook("step exploded"))
	_, _, err := ExecutePlanCtx(context.Background(), p.Plan(deadlineQuery()))
	if err == nil || !strings.Contains(err.Error(), "step exploded") {
		t.Fatalf("err = %v, want contained panic", err)
	}
}

// TestAnswerCtxStuckShardTimesOut: a stuck scan worker (blocking fault hook)
// plus a deadline produces DeadlineExceeded promptly instead of hanging the
// query forever — the end-to-end cancellation contract of the middleware.
func TestAnswerCtxStuckShardTimesOut(t *testing.T) {
	t.Cleanup(faults.Reset)
	db := skewedDB(t, 20000)
	// Huge throughput estimate: degradation must not rescue the query; the
	// stuck shard has to hit the deadline.
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.02, DistinctLimit: 100, Seed: 1, Workers: 2, ScanRowsPerSecond: 1e12})
	release := make(chan struct{})
	defer close(release)
	faults.Set(faults.PointScanShard, faults.BlockHook(release))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.AnswerCtx(ctx, deadlineQuery())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stuck shard held the query for %v", elapsed)
	}
}
