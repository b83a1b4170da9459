package ingest

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
)

// The sample lifecycle — everything that happens to pre-processing's output
// after it exists — is written once, here: Recover brings a process up from
// whatever the catalog and WAL directories hold, Rebuild replaces the serving
// sample family without downtime, and persist saves it as the next catalog
// generation. cmd/aqpd, internal/server and the crash simulator all drive
// these functions (ARCHITECTURE.md §7 and §9 state the order and why).

// Recovery reports what Recover found and did, for the caller to log and
// serve.
type Recovery struct {
	// Coordinator is the live ingest coordinator, WAL replayed; nil when
	// Recover was given no WAL.
	Coordinator *Coordinator
	// Generation is the catalog generation being served: the one restored, or
	// the one a from-scratch build was saved as; 0 when nothing is persisted.
	Generation uint64
	// Source is "snapshot" when the samples were restored from a catalog
	// generation and "preprocess" when they were built from the base data.
	Source string
	// Checkpoint is the restored generation's checkpoint, or for a
	// from-scratch build the one its first save wrote (covering nothing over
	// the current base); never nil.
	Checkpoint *Checkpoint
	// Skipped lists the newer catalog generations that failed verification
	// or were cut over a different base, and last the restored one when its
	// family was built from another configuration or cannot be read.
	Skipped []catalog.SkippedSnapshot
	// Replay is the WAL replay's work; zero without a WAL.
	Replay ReplayStats
	// GCRemoved and GCErr report the startup segment GC below the restored
	// checkpoint. GCErr is non-fatal: leftover segments only cost disk and
	// are retried at the next checkpoint or startup.
	GCRemoved int
	GCErr     error
	// SaveErr is a non-fatal failure to persist a from-scratch build: the
	// samples serve, but the next start pre-processes again.
	SaveErr error
}

// Recover establishes the serving state of one process. In order:
//
//  1. Samples. The newest catalog generation that verifies and was cut over
//     this base-row count is restored (samples, ingested-row delta, data
//     generation); older generations are the fall-back, reported in Skipped.
//     When its family records another configuration than strategy's (after
//     defaults), or is in a store version this build does not read, the
//     family is reported in Skipped too and strategy pre-processes the
//     restored data in its place. With no usable generation — or no catalog
//     — the strategy pre-processes the base data. Either way a catalog gets
//     the new family as its next generation, so it self-heals.
//  2. The runtime settings a saved family does not record — strategy's
//     scan rate and worker budget (SmallGroupConfig.ScanRowsPerSecond and
//     Workers) — are applied to whichever state now serves.
//  3. With a WAL: segments wholly below the checkpoint are deleted
//     (finishing a GC a crash interrupted), the coordinator attaches with
//     the checkpoint's BaseRows, the idempotency window is seeded from the
//     snapshot, and the log's tail replays.
//
// cat and wal may each be nil. The coordinator maintains the family under
// strategy's name, and cfg.BaseRows is overwritten from the checkpoint.
// Errors are fatal to start-up; everything survivable is in the Recovery.
func Recover(sys *core.System, cat *catalog.Catalog, wal *WAL, strategy *core.SmallGroup, cfg Config) (*Recovery, error) {
	cfg.strategy = strategy.Name()
	rec := &Recovery{Source: "snapshot"}
	var snap *Snapshot
	err := catalog.ErrNoSnapshot
	if cat != nil {
		var res catalog.LoadResult
		res, err = cat.LoadLatest(func(r io.Reader) error {
			s, derr := DecodeSnapshot(r)
			if s != nil {
				// A generation cut over a different base is as unusable as a
				// corrupt one. One whose family this build cannot read is
				// not: its data is restored and the family rebuilt (below).
				derr = s.checkBase(sys.DB().NumRows())
			}
			if derr == nil {
				snap = s
			}
			return derr
		})
		rec.Generation, rec.Skipped = res.Generation, res.Skipped
	}
	switch {
	case err == nil:
		// A family built from another configuration, saved over other
		// dimension tables or in a store version this build does not read is
		// skipped, but not its data: the delta, ids and data generation stay,
		// and the configured strategy pre-processes them as a rebuild would.
		if err = snap.Restore(sys, cfg.strategy); err != nil && !errors.Is(err, core.ErrOtherDimensions) && !errors.Is(err, core.ErrStoreVersion) {
			return nil, err
		}
		if err == nil {
			err = strategy.CheckFamily(snap.Prepared)
		}
		if err != nil {
			rec.Skipped = append(rec.Skipped, catalog.SkippedSnapshot{Generation: rec.Generation, Path: cat.Path(rec.Generation), Err: err})
		}
	case errors.Is(err, catalog.ErrNoSnapshot):
		snap = &Snapshot{Checkpoint: &Checkpoint{BaseRows: uint64(sys.DB().NumRows())}}
	default:
		return nil, err
	}
	if err != nil {
		rec.Source = "preprocess"
		if err := sys.AddStrategy(strategy); err != nil {
			return nil, err
		}
		snap.Prepared, _ = sys.Prepared(cfg.strategy)
		if cat != nil {
			rec.Generation, rec.SaveErr = saveGeneration(cat, snap.Prepared, *snap.Checkpoint, sys.DB(), snap.IDs)
		}
	}
	rec.Checkpoint = snap.Checkpoint
	strategy.Configure(snap.Prepared)
	if wal == nil {
		return rec, nil
	}

	cfg.BaseRows = int(rec.Checkpoint.BaseRows)
	rec.GCRemoved, rec.GCErr = wal.RemoveSegmentsBelow(rec.Checkpoint.Seg)
	c, err := New(sys, wal, cfg)
	if err != nil {
		return nil, err
	}
	c.SeedIdempotency(snap.IDs)
	if rec.Replay, err = c.ReplayWAL(); err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	rec.Coordinator = c
	return rec, nil
}

// RebuildResult reports one Rebuild: the pre-processing cost and what
// persisting the new family did (the zero CheckpointResult without a
// catalog).
type RebuildResult struct {
	CheckpointResult
	// Preprocess is the wall time of the strategy's pre-processing phase.
	Preprocess time.Duration
	// PersistErr is a non-fatal save failure: the new samples serve, but the
	// generation is not durable (or, with a non-zero Generation, saved but
	// failed its read-back verification).
	PersistErr error
}

// Rebuild replaces the sample family registered under name while queries
// (and, with a coordinator, ingest) keep running: pin a database version,
// pre-process it outside every lock, swap the result in, then persist it to
// cat when one is given.
//
// With a coordinator the pin starts buffering ingested batches as the tail,
// and the swap is a rebase — the tail is re-applied sample-side onto the
// fresh family before it is published, so the checkpoint persisted afterwards
// carries the full data generation and a restart replays exactly the batches
// past it. Without one the data is immutable and the swap is a pointer store.
// An error means the serving family is unchanged (or, from the rebase, that
// ingest state must be rebuilt again); save failures are in the result.
func Rebuild(sys *core.System, c *Coordinator, cat *catalog.Catalog, strategy *core.SmallGroup, name string, workers int) (RebuildResult, error) {
	var res RebuildResult
	db, pinned := sys.Data()
	if c != nil {
		var err error
		if db, pinned, err = c.beginRebuild(); err != nil {
			return res, err
		}
	}
	start := time.Now()
	p, err := strategy.Preprocess(db)
	if err != nil {
		if c != nil {
			c.abortRebuild()
		}
		return res, fmt.Errorf("rebuild preprocess: %w", err)
	}
	p.SetWorkers(workers)
	res.Preprocess = time.Since(start)
	if c == nil {
		if _, err := sys.SwapPrepared(name, p); err != nil {
			return res, fmt.Errorf("rebuild swap: %w", err)
		}
	} else if err := c.completeRebuild(p, pinned); err != nil {
		return res, fmt.Errorf("rebuild rebase: %w", err)
	}
	if cat != nil {
		res.CheckpointResult, res.PersistErr = persist(sys, c, cat, name)
	}
	return res, nil
}

// persist saves the serving sample family as the next catalog generation:
// through the coordinator as a checkpoint (samples + ingested delta + WAL
// position, then segment GC), or without one as the checkpoint that covers
// nothing over the current base.
func persist(sys *core.System, c *Coordinator, cat *catalog.Catalog, name string) (CheckpointResult, error) {
	if c != nil {
		return c.SaveCheckpoint(cat)
	}
	p, _ := sys.Prepared(name)
	db := sys.DB()
	gen, err := saveGeneration(cat, p, Checkpoint{BaseRows: uint64(db.NumRows())}, db, nil)
	return CheckpointResult{Generation: gen}, err
}

// saveGeneration writes one checkpoint as the catalog's next generation: the
// only way this program writes into a catalog.
func saveGeneration(cat *catalog.Catalog, p core.Prepared, ck Checkpoint, db *engine.Database, ids []IdentEntry) (uint64, error) {
	return cat.Save(func(w io.Writer) error {
		return WriteCheckpoint(w, p, ck, db, ids)
	})
}
