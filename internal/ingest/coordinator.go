package ingest

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
)

// ErrOverloaded is returned when more ingest requests are in flight than the
// configured pending bound; callers should retry after backing off (the HTTP
// layer maps it to 503 + Retry-After).
var ErrOverloaded = errors.New("ingest: too many pending batches")

// ErrDuplicate reports that a batch id was already applied; the stats
// returned alongside it are the original application's. Retried requests
// (client timeout, at-least-once delivery) land here instead of appending
// rows twice.
var ErrDuplicate = errors.New("ingest: duplicate batch id")

// ErrUnavailable marks server-side ingest failures — a WAL write or fsync
// error, a batch that was logged durably but failed to apply in memory, or
// any request refused because an earlier such failure poisoned the
// coordinator. Unlike validation errors the request itself was fine, so the
// HTTP layer maps it to 500 rather than 400.
var ErrUnavailable = errors.New("ingest: ingestion unavailable")

// ErrDegraded marks ingest refused because a WAL write, fsync, or rotation
// failure put the coordinator into degraded read-only mode: queries keep
// serving, no acknowledged batch was lost, and a background probe retries
// the disk with bounded backoff — ingest resumes by itself once the fault
// clears. The HTTP layer maps it to 503 + Retry-After (the fault is
// transient by assumption), unlike the plain ErrUnavailable 500. It wraps
// ErrUnavailable so callers matching the broader class still catch it.
var ErrDegraded = fmt.Errorf("%w: degraded by a disk fault (read-only until the WAL heals)", ErrUnavailable)

// PoisonedError records the batch whose durable-but-unapplied write froze
// ingest: the WAL acknowledged the batch but the in-memory apply failed, so
// log and memory disagree and any further append would reuse the durable
// sequence number. It flows to clients inside the ErrUnavailable envelope.
type PoisonedError struct {
	// Seq is the sequence number of the durable-but-unapplied batch.
	Seq uint64
	// BatchID is its client idempotency id; empty if none was given.
	BatchID string
	// Cause is the apply failure.
	Cause error
}

func (e *PoisonedError) Error() string {
	id := e.BatchID
	if id == "" {
		id = "(none)"
	}
	return fmt.Sprintf("batch seq=%d id=%s is durable in the WAL but failed to apply in memory: %v; restart the server — startup replay applies the logged batch and clears the divergence",
		e.Seq, id, e.Cause)
}

func (e *PoisonedError) Unwrap() error { return e.Cause }

// DefaultMaxPending is the ingest backpressure bound a zero
// Config.MaxPending means.
const DefaultMaxPending = 64

// Config tunes a Coordinator. The zero value is usable given a Strategy
// registered on the System.
type Config struct {
	// Strategy names the prepared state to maintain online. Empty means
	// "smallgroup".
	Strategy string
	// Online parameterises the core maintenance layer. Online.Seed must be
	// stable across restarts of the same WAL for bit-identical replay.
	Online core.OnlineConfig
	// MaxPending bounds ingest requests admitted concurrently (applying plus
	// waiting on the writer lock); excess requests fail fast with
	// ErrOverloaded. Zero means DefaultMaxPending.
	MaxPending int
	// DriftBound is the drift-gauge level at which OnDrift fires (serve
	// slightly-stale-but-correct answers below it, rebuild above). Zero means
	// 1.0; negative disables the trigger.
	DriftBound float64
	// IdempotencyWindow is how many recent batch ids are remembered for
	// duplicate detection. Zero means 4096.
	IdempotencyWindow int
	// OnDrift, when non-nil, is called (on its own goroutine, at most once
	// per rebuild cycle) when the drift gauge crosses DriftBound. The server
	// wires it to a background rebuild.
	OnDrift func(drift float64)
	// BaseRows is the row count of the regenerated base data before any
	// ingested batch — the offset checkpoints cut their delta at. Zero means
	// the system database's row count at New, which is correct unless a
	// checkpoint delta was already restored onto the base (then the caller
	// must pass the pre-delta count).
	BaseRows int
	// ProbeBackoff and ProbeBackoffMax bound the degraded-mode re-probe
	// loop: the first probe runs after ProbeBackoff, doubling up to
	// ProbeBackoffMax. Zero means 500ms and 30s.
	ProbeBackoff    time.Duration
	ProbeBackoffMax time.Duration
}

// Coordinator is the single-writer ingest pipeline: validate → WAL append +
// fsync → in-memory apply → publish. One mutex serialises the write path;
// queries never take it — they read the atomically published versions in
// core.System. It also owns the rebuild handshake: batches ingested while a
// rebuild runs are buffered as the tail and re-applied onto the fresh state.
type Coordinator struct {
	sys *core.System
	wal *WAL
	cfg Config

	pending atomic.Int64

	mu     sync.Mutex
	online *core.Online

	// Idempotency LRU: ids in arrival order, evicting the oldest.
	ids    map[string]core.BatchStats
	order  []string
	oldest int

	rebuilding bool
	tail       []core.TailBatch
	driftFired bool

	// poisoned is set when a batch became durable in the WAL but failed to
	// apply in memory: the log and the in-memory state now disagree, and any
	// further append would reuse the durable batch's sequence number and
	// corrupt the WAL. Every subsequent Ingest refuses with ErrUnavailable;
	// restarting replays the log and clears the divergence.
	poisoned error

	// degraded is set when a WAL append/fsync/rotation failure made the log
	// unwritable. Unlike poisoned, nothing reached the log, so memory and
	// log still agree: queries keep serving, ingest fast-fails with
	// ErrDegraded, and the probe loop clears the latch once a no-op frame
	// round-trips to disk again.
	degraded error
	probing  bool // a probe goroutine is running

	// baseRows is the pre-ingest row count of the regenerated base data;
	// checkpoints cut their delta at this offset.
	baseRows uint64

	// appliedSeg/appliedOff is the WAL position covering every batch applied
	// in memory: each record physically before it is an applied batch, a
	// checkpoint-covered batch, or a no-op frame. It deliberately lags the
	// raw write position while poisoned (the durable-but-unapplied record
	// sits past it), which is exactly what makes it the safe GC bound — a
	// checkpoint cut at this position never lets RemoveSegmentsBelow delete
	// an unapplied batch.
	appliedSeg uint64
	appliedOff int64

	stop      chan struct{}
	closeOnce sync.Once
}

// New attaches a coordinator to the system's prepared state. Call after the
// strategy is registered (fresh Preprocess or snapshot restore) and the WAL
// is open, then ReplayWAL before serving ingest traffic.
func New(sys *core.System, wal *WAL, cfg Config) (*Coordinator, error) {
	if cfg.Strategy == "" {
		cfg.Strategy = "smallgroup"
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.DriftBound == 0 {
		cfg.DriftBound = 1.0
	}
	if cfg.IdempotencyWindow <= 0 {
		cfg.IdempotencyWindow = 4096
	}
	if cfg.ProbeBackoff <= 0 {
		cfg.ProbeBackoff = 500 * time.Millisecond
	}
	if cfg.ProbeBackoffMax <= 0 {
		cfg.ProbeBackoffMax = 30 * time.Second
	}
	online, err := core.NewOnline(sys, cfg.Strategy, cfg.Online)
	if err != nil {
		return nil, err
	}
	if cfg.BaseRows <= 0 {
		cfg.BaseRows = sys.DB().NumRows()
	}
	c := &Coordinator{
		sys:      sys,
		wal:      wal,
		cfg:      cfg,
		online:   online,
		ids:      make(map[string]core.BatchStats, cfg.IdempotencyWindow),
		baseRows: uint64(cfg.BaseRows),
		stop:     make(chan struct{}),
	}
	obsDataGen.Set(float64(online.DataGeneration()))
	obsDrift.Set(online.Drift())
	return c, nil
}

// ReplayStats reports what one startup replay did and what it cost.
type ReplayStats struct {
	// Batches is the number of batches applied onto the in-memory state.
	Batches int
	// Covered is the number of batches skipped because the restored
	// checkpoint already reflects them (sequence at or below the restored
	// data generation).
	Covered int
	// Noops is the number of no-op probe frames skipped.
	Noops int
	// Segments and Bytes are the physical scan: segments read and valid WAL
	// bytes they held.
	Segments int
	Bytes    int64
	// Elapsed is the wall-clock replay duration.
	Elapsed time.Duration
	// Torn reports whether a torn tail (crash mid-append) was discarded.
	Torn bool
}

// ReplayWAL re-applies the durable WAL onto the restored state, in order.
// Batches the restored checkpoint already covers (sequence at or below the
// data generation the snapshot installed) are skipped — their rows arrived
// inside the snapshot's delta; without a checkpoint the whole log replays,
// matching the legacy snapshot format. Batch ids of replayed batches are fed
// into the idempotency window so client retries spanning a restart are still
// deduplicated (covered batches' ids come from the checkpoint instead, via
// SeedIdempotency). The first non-covered batch must continue the restored
// sequence exactly: a gap means an acknowledged batch is missing, which is
// data loss, not a crash artifact.
func (c *Coordinator) ReplayWAL() (ReplayStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rs ReplayStats
	start := time.Now()
	startGen := c.online.DataGeneration()
	_, segments, bytes, torn, err := replayDetail(c.wal.Dir(), func(payload []byte) error {
		if IsNoop(payload) {
			rs.Noops++
			return nil
		}
		b, err := DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if b.Seq <= startGen {
			// Already inside the restored checkpoint. Do not touch the
			// idempotency window: the checkpoint's persisted entries seeded
			// it, and re-adding would duplicate LRU slots.
			rs.Covered++
			obsReplaySkipped.Inc()
			return nil
		}
		if want := c.online.DataGeneration() + 1; b.Seq != want {
			return fmt.Errorf("%w: batch sequence %d, want %d", ErrCorrupt, b.Seq, want)
		}
		st, err := c.online.Apply(b.Seq, b.Rows)
		if err != nil {
			return fmt.Errorf("ingest: replaying batch %d: %w", b.Seq, err)
		}
		if b.ID != "" {
			c.remember(b.ID, st)
		}
		rs.Batches++
		obsReplayed.Inc()
		return nil
	})
	rs.Segments, rs.Bytes, rs.Torn = segments, bytes, torn
	rs.Elapsed = time.Since(start)
	obsReplaySegments.Add(uint64(segments))
	obsReplayBytes.Add(uint64(bytes))
	obsReplaySeconds.Set(rs.Elapsed.Seconds())
	if err != nil {
		return rs, err
	}
	// End of the durable log: everything before the write position is now
	// applied (or covered, or a no-op), so it is the applied position too.
	c.appliedSeg, c.appliedOff = c.wal.Position()
	obsDataGen.Set(float64(c.online.DataGeneration()))
	obsDrift.Set(c.online.Drift())
	return rs, nil
}

// SeedIdempotency pre-populates the duplicate-detection window with entries
// persisted in a checkpoint (oldest first), so client retries of batches
// whose WAL records were garbage-collected still answer ErrDuplicate with
// the original stats. Call before ReplayWAL.
func (c *Coordinator) SeedIdempotency(ids []IdentEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range ids {
		if e.ID != "" {
			c.remember(e.ID, e.Stats)
		}
	}
}

// Ingest appends one batch of rows (view column order) with the given
// idempotency id (may be empty). On success the batch is durable in the WAL
// and visible to queries. A repeated id returns the original stats with
// ErrDuplicate; overload returns ErrOverloaded without touching anything.
func (c *Coordinator) Ingest(id string, rows [][]engine.Value) (core.BatchStats, error) {
	var zero core.BatchStats
	if n := c.pending.Add(1); n > int64(c.cfg.MaxPending) {
		c.pending.Add(-1)
		obsBatches.With("overload").Inc()
		return zero, ErrOverloaded
	}
	defer c.pending.Add(-1)
	if len(rows) == 0 {
		obsBatches.With("invalid").Inc()
		return zero, errors.New("ingest: empty batch")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if id != "" {
		if st, ok := c.ids[id]; ok {
			obsBatches.With("duplicate").Inc()
			return st, ErrDuplicate
		}
	}
	if c.poisoned != nil {
		obsBatches.With("poisoned").Inc()
		return zero, fmt.Errorf("%w: writes disabled after earlier failure: %w", ErrUnavailable, c.poisoned)
	}
	if c.degraded != nil {
		obsBatches.With("degraded").Inc()
		return zero, fmt.Errorf("%w: %v", ErrDegraded, c.degraded)
	}
	// Validate before the WAL append: a record acknowledged to disk must be
	// guaranteed to apply on replay.
	if err := c.online.Validate(rows); err != nil {
		obsBatches.With("invalid").Inc()
		return zero, err
	}
	seq := c.online.DataGeneration() + 1
	payload, err := EncodeBatch(&Batch{Seq: seq, ID: id, Rows: rows})
	if err != nil {
		obsBatches.With("invalid").Inc()
		return zero, err
	}
	if err := c.wal.Append(payload); err != nil {
		// Nothing was acknowledged: the WAL either rolled the failed frame
		// back or latched itself broken, so log and memory still agree. Go
		// read-only and let the probe loop bring ingest back when the disk
		// heals — a transient ENOSPC or fsync error must not require a
		// restart.
		c.enterDegraded(err)
		obsBatches.With("error").Inc()
		return zero, fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	st, err := c.apply(seq, rows)
	if err != nil {
		// The record is durable but the in-memory apply failed — state the
		// WAL considers acknowledged is missing from memory, and a retry
		// would log a second record with this sequence. Poison ingest until
		// a restart replays the log.
		c.poisoned = &PoisonedError{Seq: seq, BatchID: id, Cause: err}
		obsBatches.With("error").Inc()
		return zero, fmt.Errorf("%w: %w", ErrUnavailable, c.poisoned)
	}
	c.appliedSeg, c.appliedOff = c.wal.Position()
	if id != "" {
		c.remember(id, st)
	}
	if c.rebuilding {
		c.tail = append(c.tail, core.TailBatch{Seq: seq, Rows: rows})
	}
	obsBatches.With("ok").Inc()
	obsRows.Add(uint64(st.Rows))
	obsReservoirSwaps.Add(uint64(st.ReservoirSwaps))
	obsSmallGroupInserts.Add(uint64(st.SmallGroupInserts))
	obsDataGen.Set(float64(st.DataGeneration))
	obsDrift.Set(st.Drift)
	if c.cfg.OnDrift != nil && c.cfg.DriftBound > 0 &&
		st.Drift >= c.cfg.DriftBound && !c.driftFired && !c.rebuilding {
		c.driftFired = true
		go c.cfg.OnDrift(st.Drift)
	}
	return st, nil
}

// apply runs the in-memory application of a WAL-durable batch, with the
// PointIngestApply fault point in the gap a crash-point test targets: the
// batch is on disk but not yet in memory.
func (c *Coordinator) apply(seq uint64, rows [][]engine.Value) (core.BatchStats, error) {
	if err := faults.FireErr(faults.PointIngestApply, int(seq)); err != nil {
		return core.BatchStats{}, err
	}
	return c.online.Apply(seq, rows)
}

// enterDegraded latches read-only mode (idempotently) and starts the probe
// loop if one is not already running. Called with mu held.
func (c *Coordinator) enterDegraded(cause error) {
	if c.degraded == nil {
		c.degraded = cause
		obsDegraded.Set(1)
	}
	if !c.probing {
		c.probing = true
		go c.probeLoop()
	}
}

// probeLoop retries the WAL with bounded, jittered doubling backoff until a
// probe succeeds (ingest resumes) or the coordinator is closed.
func (c *Coordinator) probeLoop() {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := c.cfg.ProbeBackoff
	for {
		t := time.NewTimer(jitterBackoff(rng, backoff))
		select {
		case <-c.stop:
			t.Stop()
			return
		case <-t.C:
		}
		if err := c.ProbeNow(); err == nil {
			return
		}
		backoff *= 2
		if backoff > c.cfg.ProbeBackoffMax {
			backoff = c.cfg.ProbeBackoffMax
		}
	}
}

// jitterBackoff draws a wait uniformly from [d/2, d]. Pure doubling from a
// shared ProbeBackoff default synchronizes the probes of every degraded
// process sharing a disk (they all trip on the same fault at the same
// moment), so the recovered disk takes the whole herd's probes at once;
// the jitter decorrelates them while keeping the wait within a factor of
// two of the schedule.
func jitterBackoff(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(d-half)+1))
}

// ProbeNow attempts to clear degraded mode immediately: it asks the WAL to
// repair its tail if needed and append a no-op frame through the normal
// fsync path. On success ingest is writable again. A nil return with no
// degraded state latched is a no-op. Safe to call from any goroutine; the
// probe loop calls it on its backoff schedule, and tests call it for
// determinism.
func (c *Coordinator) ProbeNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.degraded == nil {
		c.probing = false
		return nil
	}
	if err := c.wal.Probe(); err != nil {
		obsProbes.With("error").Inc()
		return err
	}
	obsProbes.With("ok").Inc()
	c.degraded = nil
	c.probing = false
	obsDegraded.Set(0)
	if c.poisoned == nil {
		// The probe's no-op frame advanced the log past positions that hold
		// only applied batches and no-ops, so the applied position may follow.
		c.appliedSeg, c.appliedOff = c.wal.Position()
	}
	return nil
}

// State summarises ingest availability for health endpoints: "ok",
// "degraded" (disk fault, self-recovering, ingest 503s), or "poisoned"
// (restart required). detail carries the underlying error, empty when ok.
func (c *Coordinator) State() (state, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.poisoned != nil:
		return "poisoned", c.poisoned.Error()
	case c.degraded != nil:
		return "degraded", c.degraded.Error()
	}
	return "ok", ""
}

// Close stops the background probe loop. It does not close the WAL.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
}

// SetOnDrift installs (or replaces) the drift-trigger callback after
// construction. The server uses it to point the trigger at its own rebuild
// once both sides exist; call before serving ingest traffic.
func (c *Coordinator) SetOnDrift(fn func(drift float64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.OnDrift = fn
}

// remember records a batch id in the idempotency LRU, evicting the oldest
// once the window is full.
func (c *Coordinator) remember(id string, st core.BatchStats) {
	if len(c.order) < c.cfg.IdempotencyWindow {
		c.order = append(c.order, id)
	} else {
		delete(c.ids, c.order[c.oldest])
		c.order[c.oldest] = id
		c.oldest = (c.oldest + 1) % len(c.order)
	}
	c.ids[id] = st
}

// Generation returns the current data generation (ingest batches applied).
func (c *Coordinator) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.online.DataGeneration()
}

// Drift returns the current drift gauge (see core.Online.Drift).
func (c *Coordinator) Drift() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.online.Drift()
}

// beginRebuild pins the current database version for a background rebuild
// and starts buffering subsequent batches as the tail. Exactly one rebuild
// may be in flight; a second call fails until completeRebuild or
// abortRebuild.
func (c *Coordinator) beginRebuild() (*engine.Database, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rebuilding {
		return nil, 0, errors.New("ingest: rebuild already in progress")
	}
	c.rebuilding = true
	c.tail = nil
	db, gen := c.sys.Data()
	return db, gen, nil
}

// completeRebuild installs the freshly pre-processed state (built from the
// database version beginRebuild pinned at generation rebuiltAt), re-applies
// the buffered tail sample-side, publishes the result, and re-arms the
// drift trigger. Ingest is paused for the duration of the rebase only — the
// expensive Preprocess ran outside the lock.
func (c *Coordinator) completeRebuild(p core.Prepared, rebuiltAt uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.rebuilding {
		return errors.New("ingest: no rebuild in progress")
	}
	start := time.Now()
	err := c.online.Rebase(p, rebuiltAt, c.tail)
	obsRebaseSeconds.Set(time.Since(start).Seconds())
	c.rebuilding = false
	c.tail = nil
	c.driftFired = false
	if err != nil {
		return err
	}
	obsDrift.Set(c.online.Drift())
	return nil
}

// abortRebuild abandons an in-flight rebuild, discarding the buffered tail
// and re-arming the drift trigger.
func (c *Coordinator) abortRebuild() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebuilding = false
	c.tail = nil
	c.driftFired = false
}

// identEntries returns the idempotency window oldest→newest. Called with mu
// held.
func (c *Coordinator) identEntries() []IdentEntry {
	n := len(c.order)
	out := make([]IdentEntry, 0, n)
	for i := 0; i < n; i++ {
		id := c.order[(c.oldest+i)%n]
		out = append(out, IdentEntry{ID: id, Stats: c.ids[id]})
	}
	return out
}

// CheckpointResult reports what SaveCheckpoint did.
type CheckpointResult struct {
	// Generation is the catalog generation the checkpoint was saved as.
	Generation uint64
	// Removed is how many fully-covered WAL segments were deleted.
	Removed int
	// GCErr is a non-fatal segment-deletion failure: the checkpoint itself
	// is durable and the leftover segments are retried at the next
	// checkpoint or the next startup.
	GCErr error
}

// SaveCheckpoint writes the current state as a checkpointed snapshot
// generation and then garbage-collects the WAL segments it fully covers.
// The cut is captured under the writer lock (samples, applied WAL position,
// ingested-row delta, and idempotency window all describe the same paused
// instant); the snapshot bytes are written outside the lock so ingest stalls
// only for the capture. Segments are deleted only after the snapshot file on
// disk re-reads and verifies — never on the strength of a write that merely
// returned nil. A manifest-update failure is reported in err with a non-zero
// Generation, mirroring catalog.Save: the snapshot is durable and GC has
// already run.
func (c *Coordinator) SaveCheckpoint(cat *catalog.Catalog) (CheckpointResult, error) {
	var res CheckpointResult
	c.mu.Lock()
	if c.rebuilding {
		c.mu.Unlock()
		return res, errors.New("ingest: cannot checkpoint during a rebuild")
	}
	db, gen := c.sys.Data()
	p, ok := c.sys.Prepared(c.cfg.Strategy)
	if !ok {
		c.mu.Unlock()
		return res, fmt.Errorf("ingest: no prepared state for strategy %q", c.cfg.Strategy)
	}
	if got := p.DataGeneration(); got != gen {
		c.mu.Unlock()
		return res, fmt.Errorf("ingest: prepared samples are at generation %d but data is at %d", got, gen)
	}
	ck := Checkpoint{DataGen: gen, BaseRows: c.baseRows, Seg: c.appliedSeg, Off: c.appliedOff}
	ids := c.identEntries()
	c.mu.Unlock()

	// Both the database version and the prepared state are immutable
	// snapshots, so writing the file races nothing.
	cgen, err := saveGeneration(cat, p, ck, db, ids)
	if err != nil && cgen == 0 {
		obsCheckpoints.With("error").Inc()
		return res, err
	}
	res.Generation = cgen
	manifestErr := err // snapshot durable; only the advisory manifest failed

	if verr := verifyCheckpointFile(cat.Path(cgen)); verr != nil {
		obsCheckpoints.With("error").Inc()
		return res, fmt.Errorf("ingest: checkpoint generation %d failed read-back verification (wal retained): %w", cgen, verr)
	}
	obsCheckpoints.With("ok").Inc()

	c.mu.Lock()
	res.Removed, res.GCErr = c.wal.RemoveSegmentsBelow(ck.Seg)
	c.mu.Unlock()
	return res, manifestErr
}

// verifyCheckpointFile re-reads a just-written snapshot from disk through
// the catalog container: every chunk checksum, the payload length and
// checksum, and the trailer. WAL segments may only be deleted on the strength
// of bytes that verify on disk, not a write call that returned nil. The
// payload is not decoded a second time — that the encoder's bytes decode is a
// property of the code (the round-trip tests), not of the disk, and
// materialising a second copy of the samples and the delta beside the
// serving one made a rebuild's peak memory depend on where the collector
// happened to be.
func verifyCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return catalog.ReadSnapshot(f, func(io.Reader) error { return nil })
}
