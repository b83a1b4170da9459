// Package faults provides deterministic fault injection for robustness
// tests: slow shards, panicking rewrite steps, stuck workers. Production
// code calls Fire at a few fixed hook points; with no hooks registered the
// call is a single atomic load and returns immediately, so the hooks cost
// nothing outside tests.
//
// The registry is global (hook points are reached from deep inside the
// engine, far from any test-owned value), so tests that register hooks must
// not run in parallel with each other and must call Reset when done:
//
//	faults.Set(faults.PointScanShard, faults.SleepHook(time.Second))
//	t.Cleanup(faults.Reset)
package faults

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Point names a fault-injection hook site.
type Point string

const (
	// PointScanShard fires in the engine before each row-range shard of a
	// scan — on the scanning goroutine, so a blocking hook simulates a slow
	// or stuck shard worker.
	PointScanShard Point = "engine.scan-shard"
	// PointPlanStep fires in the middleware before each rewrite-plan step
	// (one branch of the rewritten UNION ALL).
	PointPlanStep Point = "core.plan-step"
	// PointHandler fires at the start of the HTTP /query handler, on the
	// request goroutine — a panicking hook exercises the server's
	// panic-recovery middleware.
	PointHandler Point = "server.handler"

	// I/O fault points for the snapshot catalog. The write and sync points
	// take ErrHooks (a returned error is injected as the I/O failure); the
	// chunk point takes a DataHook that may corrupt the bytes about to hit
	// disk, simulating a flipped bit the checksums must catch.

	// PointSnapshotWrite fires before each chunk of a snapshot is written;
	// an injected error simulates a short write or full disk.
	PointSnapshotWrite Point = "catalog.snapshot-write"
	// PointSnapshotSync fires before an atomic file write fsyncs; an
	// injected error simulates a failed fsync (the write must not commit).
	PointSnapshotSync Point = "catalog.snapshot-sync"
	// PointSnapshotRead fires before each chunk of a snapshot is read; an
	// injected error simulates a failing disk on the read path.
	PointSnapshotRead Point = "catalog.snapshot-read"
	// PointSnapshotChunk fires with each encoded chunk frame (header +
	// checksum + data) just before it is written; a DataHook may flip bits
	// in place to plant on-disk corruption.
	PointSnapshotChunk Point = "catalog.snapshot-chunk"

	// I/O fault points for the ingestion write-ahead log, mirroring the
	// snapshot points: append and sync take ErrHooks, record takes a
	// DataHook that may corrupt the framed record before it hits disk.

	// PointWALAppend fires before each WAL record write; an injected error
	// simulates a short write or full disk mid-append.
	PointWALAppend Point = "ingest.wal-append"
	// PointWALSync fires before the per-append fsync; an injected error
	// simulates a failed fsync (the batch must not be acknowledged).
	PointWALSync Point = "ingest.wal-sync"
	// PointWALRecord fires with each framed record (length + checksum +
	// payload) just before it is written; a DataHook may flip bits to plant
	// corruption the replay checksums must catch.
	PointWALRecord Point = "ingest.wal-record"

	// Lifecycle fault points for the checkpointed WAL: each one sits in the
	// gap between two durability steps, so an injected error (followed by a
	// simulated restart) exercises exactly the interleaving a real crash
	// could produce there.

	// PointIngestApply fires after a batch is durable in the WAL but before
	// it is applied in memory; an injected error leaves the log and memory
	// divergent (the coordinator must poison itself until replay).
	PointIngestApply Point = "ingest.apply"
	// PointWALGC fires before each fully-checkpointed WAL segment is
	// deleted; an injected error aborts the garbage collection mid-way,
	// simulating a crash between the checkpoint and the segment deletions.
	PointWALGC Point = "ingest.wal-gc"

	// Network fault points for the scatter-gather cluster tier. The request
	// point takes a Hook (a sleeping hook makes a slow shard, a blocking one
	// a stuck shard); the transport point takes an ErrHook fired in the
	// coordinator's client before each attempt (a returned error is treated
	// as a connection failure, making a flaky or dead shard); the body point
	// takes a CutHook that may truncate a shard response mid-stream.

	// PointShardRequest fires in the shard server's query handler before the
	// query executes, on the request goroutine. i is the shard id.
	PointShardRequest Point = "cluster.shard-request"
	// PointShardTransport fires in the coordinator's shard client before
	// each HTTP attempt; a returned error is surfaced as a transport
	// failure without touching the network. i is the shard id.
	PointShardTransport Point = "cluster.shard-transport"
	// PointShardBody fires in the shard server with the length of the
	// response body about to be written; a CutHook returning m < n makes the
	// server write only the first m bytes — a byte-truncated response the
	// coordinator's decoder must reject. i is the shard id.
	PointShardBody Point = "cluster.shard-body"
)

// Hook is an injected fault. ctx is the execution context of the hook site
// (cancellable by the request deadline); i identifies the unit of work —
// the shard or step index, 0 where there is no natural index. Hooks may
// sleep, block, or panic; they must respect ctx to avoid leaking goroutines
// past a cancelled request.
type Hook func(ctx context.Context, i int)

// ErrHook is an injected I/O failure: a non-nil return value is surfaced by
// the hook site as if the underlying operation (write, fsync, read) had
// failed with that error. i is the chunk or attempt index.
type ErrHook func(i int) error

// DataHook may mutate b in place before it is written, planting corruption
// (e.g. a single flipped bit) that integrity checks must later detect. i is
// the chunk index.
type DataHook func(i int, b []byte)

// CutHook decides how many of the n bytes about to be written actually are:
// returning m in [0, n) truncates the write after m bytes, n (or more)
// leaves it intact. i is the shard or attempt index.
type CutHook func(i, n int) int

var (
	active    atomic.Bool
	mu        sync.Mutex
	hooks     map[Point]Hook
	errHooks  map[Point]ErrHook
	dataHooks map[Point]DataHook
	cutHooks  map[Point]CutHook
)

// Set registers the hook for a point, replacing any previous one.
func Set(p Point, h Hook) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[Point]Hook)
	}
	hooks[p] = h
	active.Store(true)
}

// SetErr registers the error hook for a point, replacing any previous one.
func SetErr(p Point, h ErrHook) {
	mu.Lock()
	defer mu.Unlock()
	if errHooks == nil {
		errHooks = make(map[Point]ErrHook)
	}
	errHooks[p] = h
	active.Store(true)
}

// SetData registers the data hook for a point, replacing any previous one.
func SetData(p Point, h DataHook) {
	mu.Lock()
	defer mu.Unlock()
	if dataHooks == nil {
		dataHooks = make(map[Point]DataHook)
	}
	dataHooks[p] = h
	active.Store(true)
}

// SetCut registers the cut hook for a point, replacing any previous one.
func SetCut(p Point, h CutHook) {
	mu.Lock()
	defer mu.Unlock()
	if cutHooks == nil {
		cutHooks = make(map[Point]CutHook)
	}
	cutHooks[p] = h
	active.Store(true)
}

// Reset removes every registered hook, returning Fire to its no-op fast
// path. Call it from t.Cleanup in every test that uses Set.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = nil
	errHooks = nil
	dataHooks = nil
	cutHooks = nil
	active.Store(false)
}

// Fire runs the hook registered for p, if any. With no hooks registered
// (the production state) it is a single atomic load.
func Fire(ctx context.Context, p Point, i int) {
	if !active.Load() {
		return
	}
	mu.Lock()
	h := hooks[p]
	mu.Unlock()
	if h != nil {
		h(ctx, i)
	}
}

// FireErr runs the error hook registered for p, if any, returning its
// injected error. With no hooks registered it is a single atomic load.
func FireErr(p Point, i int) error {
	if !active.Load() {
		return nil
	}
	mu.Lock()
	h := errHooks[p]
	mu.Unlock()
	if h != nil {
		return h(i)
	}
	return nil
}

// FireData runs the data hook registered for p, if any, over b. With no
// hooks registered it is a single atomic load.
func FireData(p Point, i int, b []byte) {
	if !active.Load() {
		return
	}
	mu.Lock()
	h := dataHooks[p]
	mu.Unlock()
	if h != nil {
		h(i, b)
	}
}

// FireCut runs the cut hook registered for p over a write of n bytes,
// returning how many bytes should actually be written (clamped to [0, n]).
// With no hooks registered it is a single atomic load and returns n.
func FireCut(p Point, i, n int) int {
	if !active.Load() {
		return n
	}
	mu.Lock()
	h := cutHooks[p]
	mu.Unlock()
	if h == nil {
		return n
	}
	m := h(i, n)
	if m < 0 {
		return 0
	}
	if m > n {
		return n
	}
	return m
}

// FailNth returns an error hook that succeeds until the n-th firing
// (0-based) and then returns err on that and every later call — a
// deterministic "disk fails partway through".
func FailNth(n int, err error) ErrHook {
	var calls atomic.Int64
	return func(int) error {
		if calls.Add(1)-1 >= int64(n) {
			return err
		}
		return nil
	}
}

// FailUntilNth returns an error hook that returns err for the first n
// firings (0-based) and succeeds from then on — a deterministic "flaky
// shard" whose first connections fail but whose retries succeed.
func FailUntilNth(n int, err error) ErrHook {
	var calls atomic.Int64
	return func(int) error {
		if calls.Add(1)-1 < int64(n) {
			return err
		}
		return nil
	}
}

// CutAfter returns a cut hook that truncates the n-th fired write (0-based)
// to keep bytes, leaving other writes intact.
func CutAfter(n, keep int) CutHook {
	var calls atomic.Int64
	return func(_, size int) int {
		if calls.Add(1)-1 != int64(n) {
			return size
		}
		return keep
	}
}

// FlipBit returns a data hook that flips one bit of the n-th fired chunk
// (0-based): bit (off*8+bit)%len(b*8) counted from byte off within that
// chunk, clamped into range. Later chunks pass through untouched.
func FlipBit(n int, off int) DataHook {
	var calls atomic.Int64
	return func(_ int, b []byte) {
		if calls.Add(1)-1 != int64(n) || len(b) == 0 {
			return
		}
		b[off%len(b)] ^= 1 << (off % 8)
	}
}

// SleepHook returns a hook that sleeps for d or until ctx is cancelled,
// whichever comes first — a deterministic "slow shard".
func SleepHook(d time.Duration) Hook {
	return func(ctx context.Context, _ int) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}

// PanicHook returns a hook that panics with v.
func PanicHook(v any) Hook {
	return func(context.Context, int) { panic(v) }
}

// BlockHook returns a hook that blocks until release is closed or ctx is
// cancelled — a "stuck worker" that tests can unstick on demand.
func BlockHook(release <-chan struct{}) Hook {
	return func(ctx context.Context, _ int) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
}
