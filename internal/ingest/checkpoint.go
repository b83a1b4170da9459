package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"dynsample/internal/binio"
	"dynsample/internal/core"
	"dynsample/internal/engine"
)

// A checkpointed snapshot ties a saved sample family to the WAL position it
// covers, which is what lets the WAL be garbage-collected and restart replay
// be bounded. The container is, in binio's field layout:
//
//	[magic "DSCP0001"]
//	[dataGen u64][baseRows u64][walSeg u64][walOff u64]
//	[nIDs u32] then per id (oldest first):
//	    [id: short string][rows u32][swaps u32][sgInserts u32][drift f64][gen u64]
//	[hasDelta u8] [engine table binary, if 1]
//	[core.SaveSmallGroup stream]
//
// The delta table holds the ingested rows past baseRows in view column
// order: snapshots persist samples, not base data, and the base data is
// regenerated at startup — so once the covering WAL segments are deleted the
// snapshot itself must carry the ingested rows, or they would exist nowhere.
// The idempotency entries let a restart keep answering duplicate batch ids
// whose WAL records were garbage-collected.
//
// This is the one payload the program writes into a catalog. Without a
// coordinator the checkpoint covers nothing: data generation 0, WAL position
// 0/0, no ids, no delta.
const (
	ckMagic = "DSCP0001"

	// maxCheckpointIDs caps the persisted idempotency window; the in-memory
	// window default is 4096, so this is generous headroom, not a limit a
	// healthy system approaches.
	maxCheckpointIDs = 1 << 20
)

// Checkpoint is the WAL position a snapshot covers: the first DataGen ingest
// batches, physically everything before (Seg, Off). Segments with index
// below Seg hold only covered records and are deletable.
type Checkpoint struct {
	DataGen  uint64
	BaseRows uint64
	Seg      uint64
	Off      int64
}

// IdentEntry is one persisted idempotency-window entry: a client batch id
// and the stats its original ingest returned (replayed to duplicates).
type IdentEntry struct {
	ID    string
	Stats core.BatchStats
}

// Snapshot is a decoded catalog snapshot.
type Snapshot struct {
	// Checkpoint is the WAL position and base the snapshot covers; never nil.
	Checkpoint *Checkpoint
	// Prepared is the sample family (always present).
	Prepared core.Prepared
	// Delta holds ingested rows past Checkpoint.BaseRows, or nil if the
	// checkpoint covered no ingest.
	Delta *engine.Table
	// IDs is the persisted idempotency window, oldest first.
	IDs []IdentEntry
	// familyErr is why Prepared is nil: the family is in a store version
	// this build does not read (core.ErrStoreVersion).
	familyErr error
}

// WriteCheckpoint serialises a checkpointed snapshot of db and the sample
// family p: the delta is db's rows past ck.BaseRows, streamed from the column
// chunks without a flattened copy, and absent when nothing was ingested since
// the base data was generated.
func WriteCheckpoint(w io.Writer, p core.Prepared, ck Checkpoint, db *engine.Database, ids []IdentEntry) error {
	hasDelta := uint64(db.NumRows()) > ck.BaseRows
	if len(ids) > maxCheckpointIDs {
		// Persist the newest entries; dropping the oldest only narrows the
		// duplicate-detection window, it cannot corrupt state.
		ids = ids[len(ids)-maxCheckpointIDs:]
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(ckMagic)
	for _, v := range []uint64{ck.DataGen, ck.BaseRows, ck.Seg, uint64(ck.Off)} {
		binio.PutU64(bw, v)
	}
	binio.PutU32(bw, uint32(len(ids)))
	for _, e := range ids {
		if len(e.ID) > maxBatchID {
			return fmt.Errorf("ingest: checkpoint id is %d bytes, max %d", len(e.ID), maxBatchID)
		}
		binio.PutShortString(bw, e.ID)
		binio.PutU32(bw, uint32(e.Stats.Rows))
		binio.PutU32(bw, uint32(e.Stats.ReservoirSwaps))
		binio.PutU32(bw, uint32(e.Stats.SmallGroupInserts))
		binio.PutF64(bw, e.Stats.Drift)
		binio.PutU64(bw, e.Stats.DataGeneration)
	}
	if hasDelta {
		bw.WriteByte(1)
	} else {
		bw.WriteByte(0)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if hasDelta {
		if err := db.WriteRowsBinary(w, "ingest-delta", int(ck.BaseRows), db.NumRows()); err != nil {
			return fmt.Errorf("ingest: writing checkpoint delta: %w", err)
		}
	}
	return core.SaveSmallGroup(w, p)
}

// DecodeSnapshot reads a catalog payload, sniffing the magic: a checkpoint,
// or a bare SaveSmallGroup stream (the benchmark harness still saves one),
// which decodes to the checkpoint that covers nothing over the base its
// family was built on. A checkpoint whose family is in a store version this
// build does not read is returned with the error (it wraps
// core.ErrStoreVersion) and without its family: its data — delta, ids and
// position — is still the only copy of the rows it covers, and Restore
// restores it.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading snapshot header: %w", err)
	}
	if string(head) != "DSCP" {
		p, err := core.LoadSmallGroup(br)
		if err != nil {
			return nil, err
		}
		return &Snapshot{Checkpoint: &Checkpoint{BaseRows: uint64(p.Meta().BaseRows)}, Prepared: p}, nil
	}
	magic := make([]byte, len(ckMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ingest: reading checkpoint header: %w", err)
	}
	if string(magic) != ckMagic {
		return nil, fmt.Errorf("ingest: unsupported checkpoint version %q", magic)
	}
	// Every loop and allocation below is bounded by a checked count or by the
	// reader's latched error.
	in := binio.NewReader(br)
	s := &Snapshot{Checkpoint: &Checkpoint{DataGen: in.U64(), BaseRows: in.U64(), Seg: in.U64(), Off: int64(in.U64())}}
	for n := in.Count(maxCheckpointIDs, "checkpoint id count"); n > 0 && in.Err() == nil; n-- {
		s.IDs = append(s.IDs, IdentEntry{ID: in.ShortString(maxBatchID), Stats: core.BatchStats{
			Rows:              int(in.U32()),
			ReservoirSwaps:    int(in.U32()),
			SmallGroupInserts: int(in.U32()),
			Drift:             in.F64(),
			DataGeneration:    in.U64(),
		}})
	}
	hasDelta := in.U8()
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("ingest: reading checkpoint header: %w", err)
	}
	switch hasDelta {
	case 0:
	case 1:
		if s.Delta, err = engine.ReadBinary(br); err != nil {
			return nil, fmt.Errorf("ingest: reading checkpoint delta: %w", err)
		}
	default:
		return nil, fmt.Errorf("ingest: bad checkpoint delta flag %d", hasDelta)
	}
	s.Prepared, s.familyErr = core.LoadSmallGroup(br)
	if s.familyErr != nil && !errors.Is(s.familyErr, core.ErrStoreVersion) {
		return nil, s.familyErr
	}
	return s, s.familyErr
}

// restoreSliceRows is how many delta rows Restore holds boxed at a time: one
// storage chunk.
const restoreSliceRows = 1024

// checkBase refuses a base of any row count but the one the checkpoint was
// cut over: the delta splices on at that offset, and the samples describe
// that base.
func (s *Snapshot) checkBase(rows int) error {
	if uint64(rows) != s.Checkpoint.BaseRows {
		return fmt.Errorf("checkpoint covers %d base rows but the regenerated base has %d (changed -rows, -db, or -seed?)",
			s.Checkpoint.BaseRows, rows)
	}
	return nil
}

// Restore installs a snapshot into the system: it re-appends the delta rows
// onto the regenerated base data, publishes the resulting database at the
// checkpoint's data generation, and registers the prepared sample family
// under strategy, joining its small group tables to the dimension tables the
// delta has grown. sys must hold exactly Checkpoint.BaseRows base rows. When
// its dimension tables are not the ones the family was saved over, the data
// stays published and the error wraps core.ErrOtherDimensions; when the
// family's store version was not read (DecodeSnapshot), the data is published
// and the error wraps core.ErrStoreVersion.
func (s *Snapshot) Restore(sys *core.System, strategy string) error {
	ck := s.Checkpoint
	if err := s.checkBase(sys.DB().NumRows()); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	db := sys.DB()
	if s.Delta != nil && s.Delta.NumRows() > 0 {
		app, err := engine.NewAppender(db)
		if err != nil {
			return fmt.Errorf("ingest: restoring checkpoint delta: %w", err)
		}
		// The delta is boxed a slice at a time into one reused buffer: a whole
		// delta boxed at once is its size several times over (480 000 rows of
		// 32 columns: 600 MB of Values). Every slice has the delta's columns,
		// so a delta the view refuses is refused with the first one, before
		// anything is appended.
		cols := s.Delta.Columns()
		vals := make([]engine.Value, restoreSliceRows*len(cols))
		rows := make([][]engine.Value, 0, restoreSliceRows)
		for lo := 0; lo < s.Delta.NumRows(); lo += restoreSliceRows {
			rows = rows[:0]
			for i := lo; i < min(lo+restoreSliceRows, s.Delta.NumRows()); i++ {
				row := vals[len(rows)*len(cols):][:len(cols)]
				for j, c := range cols {
					row[j] = c.Value(i)
				}
				rows = append(rows, row)
			}
			if db, err = app.Append(rows); err != nil {
				return fmt.Errorf("ingest: restoring checkpoint delta: %w", err)
			}
		}
	}
	sys.SwapData(db, ck.DataGen)
	if s.Prepared == nil {
		return fmt.Errorf("ingest: restoring the sample family: %w", s.familyErr)
	}
	if err := sys.AddPrepared(strategy, s.Prepared); err != nil {
		return fmt.Errorf("ingest: restoring the sample family: %w", err)
	}
	return nil
}
