package faults

import (
	"context"
	"testing"
	"time"
)

func TestFireNoHookIsNoop(t *testing.T) {
	Reset()
	if active.Load() {
		t.Fatal("active with no hooks")
	}
	Fire(context.Background(), PointScanShard, 0) // must not panic or block
}

func TestSetFireReset(t *testing.T) {
	t.Cleanup(Reset)
	var got []int
	Set(PointPlanStep, func(_ context.Context, i int) { got = append(got, i) })
	if !active.Load() {
		t.Fatal("not active after Set")
	}
	Fire(context.Background(), PointPlanStep, 3)
	Fire(context.Background(), PointScanShard, 7) // different point: no hook
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("hook saw %v, want [3]", got)
	}
	Reset()
	Fire(context.Background(), PointPlanStep, 4)
	if len(got) != 1 {
		t.Fatalf("hook fired after Reset: %v", got)
	}
}

func TestSleepHookRespectsContext(t *testing.T) {
	t.Cleanup(Reset)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	SleepHook(10*time.Second)(ctx, 0)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("SleepHook ignored cancelled context (slept %v)", d)
	}
}

func TestBlockHookRelease(t *testing.T) {
	t.Cleanup(Reset)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		BlockHook(release)(context.Background(), 0)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("BlockHook returned before release")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("BlockHook did not return after release")
	}
}

func TestErrAndDataHooks(t *testing.T) {
	t.Cleanup(Reset)
	if err := FireErr(PointSnapshotWrite, 0); err != nil {
		t.Fatalf("FireErr with no hook = %v", err)
	}
	boom := context.DeadlineExceeded // any sentinel
	SetErr(PointSnapshotWrite, FailNth(2, boom))
	for i := 0; i < 2; i++ {
		if err := FireErr(PointSnapshotWrite, i); err != nil {
			t.Fatalf("FailNth fired early on call %d: %v", i, err)
		}
	}
	if err := FireErr(PointSnapshotWrite, 2); err != boom {
		t.Fatalf("FailNth(2) on 3rd call = %v, want %v", err, boom)
	}
	if err := FireErr(PointSnapshotSync, 0); err != nil {
		t.Fatalf("unhooked point returned %v", err)
	}

	b := []byte{0, 0, 0}
	FireData(PointSnapshotChunk, 0, b) // no hook: untouched
	SetData(PointSnapshotChunk, FlipBit(1, 1))
	c0, c1 := []byte{0, 0, 0}, []byte{0, 0, 0}
	FireData(PointSnapshotChunk, 0, c0)
	FireData(PointSnapshotChunk, 1, c1)
	if c0[1] != 0 {
		t.Fatalf("FlipBit(1, _) touched chunk 0: %v", c0)
	}
	if c1[1] != 1<<1 {
		t.Fatalf("FlipBit did not flip chunk 1 byte 1 bit 1: %v", c1)
	}
	Reset()
	if active.Load() {
		t.Fatal("active after Reset")
	}
}

func TestCutHooks(t *testing.T) {
	t.Cleanup(Reset)
	if n := FireCut(PointShardBody, 0, 100); n != 100 {
		t.Fatalf("FireCut with no hook = %d, want 100", n)
	}
	SetCut(PointShardBody, CutAfter(1, 7))
	if n := FireCut(PointShardBody, 0, 100); n != 100 {
		t.Fatalf("CutAfter(1) truncated write 0 to %d", n)
	}
	if n := FireCut(PointShardBody, 0, 100); n != 7 {
		t.Fatalf("CutAfter(1, 7) on write 1 = %d, want 7", n)
	}
	if n := FireCut(PointShardBody, 0, 100); n != 100 {
		t.Fatalf("CutAfter(1) truncated write 2 to %d", n)
	}
	// Out-of-range hook returns are clamped into [0, n].
	SetCut(PointShardBody, func(_, n int) int { return n + 50 })
	if n := FireCut(PointShardBody, 0, 10); n != 10 {
		t.Fatalf("over-long cut = %d, want clamp to 10", n)
	}
	SetCut(PointShardBody, func(_, _ int) int { return -3 })
	if n := FireCut(PointShardBody, 0, 10); n != 0 {
		t.Fatalf("negative cut = %d, want clamp to 0", n)
	}
}

func TestFailUntilNth(t *testing.T) {
	t.Cleanup(Reset)
	boom := context.DeadlineExceeded
	h := FailUntilNth(2, boom)
	for i := 0; i < 2; i++ {
		if err := h(i); err != boom {
			t.Fatalf("call %d = %v, want %v", i, err, boom)
		}
	}
	for i := 2; i < 5; i++ {
		if err := h(i); err != nil {
			t.Fatalf("call %d = %v, want success after n failures", i, err)
		}
	}
}

func TestPanicHook(t *testing.T) {
	t.Cleanup(Reset)
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
	}()
	PanicHook("boom")(context.Background(), 0)
}
