// Package ingest is the live ingestion subsystem: it accepts streamed row
// appends and keeps both the base data and the prepared sample family
// current without a full rebuild per batch.
//
// It has three layers:
//
//   - wal.go: a durable write-ahead log of binio frames, the checksummed
//     frame the catalog container is made of. Every acknowledged batch is
//     one frame, fsynced before the append is applied in memory; segments
//     rotate at a size bound. On startup the log is replayed in order: a
//     torn tail (a crash mid-append) in the final segment is detected by
//     checksum and truncated, while corruption in any earlier segment is a
//     hard error — an acknowledged batch that went missing is data loss, not
//     a crash artifact.
//   - codec.go: the batch record format — sequence number, client batch id,
//     and typed row values, with hostile-length caps on every count so a
//     corrupt record yields an error, not a multi-gigabyte allocation.
//   - coordinator.go: the single-writer pipeline gluing the WAL to
//     core.Online (WAL append → fsync → in-memory apply → publish), with
//     request-id idempotency, bounded backpressure, drift-triggered rebuild
//     hand-off, and startup replay.
//
// The WAL is the system of record for ingested rows between checkpoints:
// the base data is regenerated at startup and the durable log is replayed on
// top of it. Checkpointed snapshots bound that lifecycle — a snapshot that
// embeds the ingested rows and records the WAL position it covers lets
// RemoveSegmentsBelow delete every fully-covered segment, so disk usage and
// restart replay are proportional to ingest-since-last-checkpoint rather
// than ingest-since-birth (see checkpoint.go and Coordinator.SaveCheckpoint).
// Segments at or above the checkpointed position are never deleted.
package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dynsample/internal/binio"
	"dynsample/internal/faults"
)

// WAL format constants. Each segment is the 8-byte magic followed by one
// binio frame per record (an empty payload is never a record). The magic is
// versioned; a future format bump changes the trailing digits.
const (
	segMagic   = "DSWAL001"
	segPattern = "wal-%010d.seg"

	// maxRecordSize bounds both a legitimate encoded batch and what replay
	// will allocate on the word of an unverified length prefix.
	maxRecordSize = 16 << 20

	// defaultSegBytes rotates segments at 64 MiB so a torn tail is always
	// confined to a bounded final file.
	defaultSegBytes = 64 << 20
)

// ErrCorrupt wraps every integrity failure found while reading the WAL that
// is not an ignorable torn tail: a bad magic, a checksum mismatch or
// truncation in a non-final segment.
var ErrCorrupt = errors.New("ingest: corrupt wal")

func walCorruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// WAL is a segmented, fsync-per-append write-ahead log. It is not
// internally synchronised: the coordinator serialises all appends.
type WAL struct {
	dir      string
	f        *os.File
	segIndex uint64
	segBytes int64
	maxBytes int64
	recIndex int // running record count, for fault-hook indexing
	torn     bool
	// broken is set when a failed append could not be rolled back (the
	// truncate or its fsync failed, or segment rotation died). From then on
	// every Append refuses: writing anything behind a frame in an unknown
	// state could tear acknowledged batches or duplicate a sequence number,
	// and only a restart (which replays the durable prefix) is safe.
	broken error
}

// WALOptions tunes OpenWALWith. The zero value matches OpenWAL.
type WALOptions struct {
	// SegmentBytes overrides the rotation threshold (default 64 MiB). Small
	// values let tests exercise multi-segment lifecycles with little data.
	SegmentBytes int64
}

// OpenWAL opens (or creates) the log in dir and prepares it for appending.
// If the newest segment ends in a torn record — the signature of a crash
// mid-append — the tail is truncated to the last whole record before the
// segment is reopened for writing, so the damage cannot propagate under new
// appends. Call Replay before appending to rebuild in-memory state.
func OpenWAL(dir string) (*WAL, error) { return OpenWALWith(dir, WALOptions{}) }

// OpenWALWith is OpenWAL with explicit options.
func OpenWALWith(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating wal dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	maxBytes := opts.SegmentBytes
	if maxBytes <= 0 {
		maxBytes = defaultSegBytes
	}
	w := &WAL{dir: dir, maxBytes: maxBytes}
	if len(segs) == 0 {
		if err := w.openSegment(0); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := segs[len(segs)-1]
	valid, _, err := scanSegment(filepath.Join(dir, segName(last)), nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("ingest: opening wal segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > valid {
		// An invalid frame ends the valid prefix. A crash mid-append explains
		// it only if nothing parseable follows; a CRC-passing record behind
		// the bad frame proves mid-segment corruption (bit rot), and cutting
		// there would silently delete the acknowledged batches behind it.
		if later, lerr := validRecordAfter(filepath.Join(dir, segName(last)), valid); lerr != nil {
			f.Close()
			return nil, lerr
		} else if later {
			f.Close()
			return nil, walCorruptf("%s: intact records follow an invalid frame at offset %d (mid-segment corruption, not a torn tail)",
				segName(last), valid)
		}
		// Torn tail from a crashed append: cut it before new records land
		// behind it, and make the cut durable.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: fsync after tail truncation: %w", err)
		}
		w.torn = true
	}
	// A segment shorter than its magic is a torn creation: the process died
	// between creating the file and making the header durable, so it never
	// held a record. Rewrite the header in place rather than appending
	// records to a file replay will refuse.
	if valid < int64(len(segMagic)) {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: repairing torn segment creation: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: rewriting wal segment header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: fsync rewritten wal segment header: %w", err)
		}
		valid = int64(len(segMagic))
		w.torn = true
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w.f, w.segIndex, w.segBytes = f, last, valid
	obsWALSegments.Set(float64(last + 1))
	if w.segBytes >= w.maxBytes {
		if err := w.rotate(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Dir returns the directory the log lives in.
func (w *WAL) Dir() string { return w.dir }

// Torn reports whether OpenWAL truncated a torn tail — the signature of a
// crash mid-append. aqpd surfaces it as a startup warning.
func (w *WAL) Torn() bool { return w.torn }

// Position returns the write position: the active segment's index and the
// byte offset appends will land at. Immediately after a successful Append it
// is the position just past that record, so a snapshot taken while no append
// is in flight can record it as the point the snapshot covers.
func (w *WAL) Position() (seg uint64, off int64) { return w.segIndex, w.segBytes }

// Append frames payload as one record, writes it to the active segment and
// fsyncs before returning. A nil error means the record is durable: a crash
// after Append returns cannot lose the batch. On a write or fsync failure the
// frame is rolled back (the segment is truncated to its pre-append length) so
// a retry cannot land behind a torn frame or duplicate a sequence number; if
// that rollback itself fails the WAL refuses all further appends until
// restart. Fault points: PointWALRecord (DataHook) may corrupt the frame,
// PointWALAppend / PointWALSync (ErrHooks) inject write and fsync failures.
func (w *WAL) Append(payload []byte) error {
	if w.broken != nil {
		return fmt.Errorf("ingest: wal unusable after unrepaired write failure (restart to recover): %w", w.broken)
	}
	if w.f == nil {
		return errors.New("ingest: wal is closed")
	}
	if len(payload) == 0 || len(payload) > maxRecordSize {
		return fmt.Errorf("ingest: wal record size %d out of range (1..%d)", len(payload), maxRecordSize)
	}
	frame := binio.AppendFrame(make([]byte, 0, binio.FrameHeader+len(payload)), payload)
	faults.FireData(faults.PointWALRecord, w.recIndex, frame)
	if err := faults.FireErr(faults.PointWALAppend, w.recIndex); err != nil {
		w.repairTail()
		return fmt.Errorf("ingest: wal append: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		w.repairTail()
		return fmt.Errorf("ingest: wal append: %w", err)
	}
	if err := faults.FireErr(faults.PointWALSync, w.recIndex); err != nil {
		w.repairTail()
		return fmt.Errorf("ingest: wal fsync: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.repairTail()
		return fmt.Errorf("ingest: wal fsync: %w", err)
	}
	obsWALFsync.Observe(time.Since(start).Seconds())
	w.recIndex++
	w.segBytes += int64(len(frame))
	if w.segBytes >= w.maxBytes {
		if err := w.rotate(); err != nil {
			// The record itself is durable; sealing the segment or creating
			// the next one failed. Refuse further appends — without a usable
			// active segment a retry would duplicate the record's sequence.
			w.broken = err
			return err
		}
	}
	return nil
}

// repairTail rolls the active segment back to its last known-good length
// after a failed append, discarding whatever portion of the frame reached the
// file. A failed fsync may have left a fully written record behind: without
// the rollback, retrying the batch would append a second record with the same
// sequence number (ErrCorrupt at the next startup), and a partial write would
// leave a torn frame that silently truncates every later acknowledged batch
// on replay. If the rollback cannot be completed the WAL marks itself broken.
func (w *WAL) repairTail() {
	if err := w.f.Truncate(w.segBytes); err != nil {
		w.broken = fmt.Errorf("ingest: truncating failed wal append: %w", err)
		return
	}
	if _, err := w.f.Seek(w.segBytes, io.SeekStart); err != nil {
		w.broken = fmt.Errorf("ingest: seeking after failed wal append: %w", err)
		return
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("ingest: fsync after failed wal append rollback: %w", err)
	}
}

// Probe checks whether the log is writable again after a disk fault: it
// repairs a broken tail if one is latched (reopening the active segment,
// truncating it back to the last acknowledged byte, and finishing any
// interrupted rotation), then appends and fsyncs a no-op control frame that
// replay recognises and skips. A nil return proves a full append round-trip
// reached stable storage — the degraded coordinator uses it to decide the
// disk has healed. On failure the WAL stays (or becomes) broken and the next
// Probe retries from scratch.
func (w *WAL) Probe() error {
	if w.broken != nil || w.f == nil {
		if err := w.reopenTail(); err != nil {
			return err
		}
	}
	return w.Append(EncodeNoop())
}

// reopenTail re-establishes a writable active segment after a failure left
// it in an unknown state. Every acknowledged byte was fsynced, so truncating
// the segment file back to the acknowledged length (w.segBytes) discards
// exactly the garbage a failed append may have left — including a complete
// record whose fsync failed and was therefore never acknowledged; keeping it
// would let the next append duplicate its sequence number. If the segment
// was full, the interrupted rotation is finished.
func (w *WAL) reopenTail() error {
	if w.f != nil {
		w.f.Close() // may already be closed by a half-finished rotation
		w.f = nil
	}
	path := filepath.Join(w.dir, segName(w.segIndex))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("ingest: reopening wal segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if st.Size() < w.segBytes {
		// Acknowledged bytes are missing from the file — that is data loss,
		// not a repairable append failure.
		f.Close()
		return walCorruptf("%s: %d bytes on disk, %d acknowledged", segName(w.segIndex), st.Size(), w.segBytes)
	}
	if err := f.Truncate(w.segBytes); err != nil {
		f.Close()
		return fmt.Errorf("ingest: truncating wal segment to acknowledged length: %w", err)
	}
	if _, err := f.Seek(w.segBytes, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: fsync after wal tail repair: %w", err)
	}
	w.f = f
	w.broken = nil
	if w.segBytes >= w.maxBytes {
		if err := w.rotate(); err != nil {
			w.broken = err
			return err
		}
	}
	return nil
}

// RemoveSegmentsBelow deletes every sealed segment whose index is below seg —
// the segments a checkpoint fully covers. The active segment is never deleted
// regardless of seg. Deletion proceeds in ascending index order so a crash
// mid-GC leaves the surviving segments contiguous (listSegments treats a gap
// as data loss); an error aborts the sweep at the first failure, and a later
// call — or the startup GC after the next restart — finishes it. Returns the
// number of segments removed. Fault point: PointWALGC (ErrHook, fired with
// each segment index before its deletion).
func (w *WAL) RemoveSegmentsBelow(seg uint64) (removed int, err error) {
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	for _, idx := range segs {
		if idx >= seg || idx == w.segIndex {
			break
		}
		if err := faults.FireErr(faults.PointWALGC, int(idx)); err != nil {
			obsWALGCErrors.Inc()
			return removed, fmt.Errorf("ingest: wal gc: %w", err)
		}
		if err := os.Remove(filepath.Join(w.dir, segName(idx))); err != nil {
			obsWALGCErrors.Inc()
			return removed, fmt.Errorf("ingest: wal gc: %w", err)
		}
		removed++
		obsWALGCRemoved.Inc()
	}
	if removed > 0 {
		// Make the deletions durable so a crash cannot resurrect a directory
		// entry in the middle of the sequence.
		if d, derr := os.Open(w.dir); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	return removed, nil
}

// Close flushes and closes the active segment.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// rotate seals the active segment and starts the next one.
func (w *WAL) rotate() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: sealing wal segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("ingest: sealing wal segment: %w", err)
	}
	w.f = nil
	return w.openSegment(w.segIndex + 1)
}

// openSegment creates segment idx, writes its magic, fsyncs it and the
// directory (so the new file survives a crash), and makes it active.
func (w *WAL) openSegment(idx uint64) error {
	path := filepath.Join(w.dir, segName(idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrExist) {
		// A rotation that died between creating this file and making its
		// header durable left a husk behind; since openSegment never returned,
		// the file cannot hold acknowledged records, so if it is no longer
		// than a header it is safe to recreate. Anything longer is not ours
		// to delete.
		if st, serr := os.Stat(path); serr == nil && st.Size() <= int64(len(segMagic)) {
			if rerr := os.Remove(path); rerr != nil {
				return fmt.Errorf("ingest: removing torn wal segment: %w", rerr)
			}
			f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("ingest: creating wal segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("ingest: writing wal segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: fsync wal segment header: %w", err)
	}
	if d, derr := os.Open(w.dir); derr == nil {
		d.Sync()
		d.Close()
	}
	w.f, w.segIndex, w.segBytes = f, idx, int64(len(segMagic))
	obsWALSegments.Set(float64(idx + 1))
	return nil
}

func segName(idx uint64) string { return fmt.Sprintf(segPattern, idx) }

// listSegments returns the segment indices present in dir, sorted
// ascending. Gaps in the sequence are a hard error: a missing middle
// segment means acknowledged batches are gone.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: listing wal dir: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		var idx uint64
		if _, err := fmt.Sscanf(e.Name(), segPattern, &idx); err == nil && e.Name() == segName(idx) {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i, idx := range segs {
		if idx != segs[0]+uint64(i) {
			return nil, walCorruptf("segment sequence has a gap: missing %s", segName(segs[0]+uint64(i)))
		}
	}
	return segs, nil
}

// scanSegment reads one segment, calling fn (if non-nil) with each record
// payload that passes its checksum, and returns the byte offset just past
// the last valid record. A clean segment returns (size, true, nil); a torn
// or corrupt tail returns the valid prefix length with ok=false and no
// error — the caller decides whether a dirty tail is tolerable (final
// segment) or fatal (earlier segment). Only I/O failures and a bad magic
// return an error.
func scanSegment(path string, fn func(payload []byte) error) (valid int64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("ingest: opening wal segment: %w", err)
	}
	defer f.Close()
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		// A segment too short to hold its magic can only be a torn creation
		// of the newest segment; report it as an empty dirty segment.
		return 0, false, nil
	}
	if string(magic) != segMagic {
		return 0, false, walCorruptf("%s: bad segment magic %q", filepath.Base(path), magic)
	}
	valid = int64(len(segMagic))
	r := bufio.NewReaderSize(f, 64<<10)
	var buf []byte
	for {
		payload, err := binio.ReadFrame(r, buf, maxRecordSize)
		if err == io.EOF {
			return valid, true, nil
		}
		if err != nil || len(payload) == 0 {
			return valid, false, nil // torn or corrupt frame
		}
		buf = payload
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, false, err
			}
		}
		valid += int64(binio.FrameHeader + len(payload))
	}
}

// Replay reads every durable record in dir in append order and hands its
// payload to fn, which must not keep it: the next record is read into the
// same storage. A torn or corrupt tail is tolerated only in the final
// segment (the only place a crash mid-append can leave one) and reported
// via the returned torn flag; the same damage in an earlier segment returns
// an error wrapping ErrCorrupt. An error from fn aborts the replay.
func Replay(dir string, fn func(payload []byte) error) (records int, torn bool, err error) {
	records, _, _, torn, err = replayDetail(dir, fn)
	return records, torn, err
}

// replayDetail is Replay plus the physical dimensions of the scan: how many
// segments were read and how many valid bytes they held (the cost of this
// recovery, exported as replay metrics by the coordinator).
func replayDetail(dir string, fn func(payload []byte) error) (records, segments int, bytes int64, torn bool, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, 0, 0, false, err
	}
	for i, idx := range segs {
		path := filepath.Join(dir, segName(idx))
		valid, clean, err := scanSegment(path, func(p []byte) error {
			records++
			return fn(p)
		})
		segments++
		bytes += valid
		if err != nil {
			return records, segments, bytes, false, err
		}
		if !clean {
			if i != len(segs)-1 {
				return records, segments, bytes, false, walCorruptf("%s: corrupt record in non-final segment", segName(idx))
			}
			// A torn tail is only believable if nothing valid follows the bad
			// frame; an intact record behind it means the frame is mid-segment
			// corruption and acknowledged batches would be lost.
			later, lerr := validRecordAfter(path, valid)
			if lerr != nil {
				return records, segments, bytes, false, lerr
			}
			if later {
				return records, segments, bytes, false, walCorruptf("%s: intact records follow an invalid frame at offset %d (mid-segment corruption, not a torn tail)",
					segName(idx), valid)
			}
			return records, segments, bytes, true, nil
		}
	}
	return records, segments, bytes, false, nil
}

// validRecordAfter reports whether any byte offset at or after off in the
// segment parses as a complete checksummed record. The frame at off itself
// failed validation, so a hit can only come from a record behind it — proof
// that the invalid frame is mid-segment damage rather than the torn tail of
// a crashed append (a crash cannot manufacture valid records past the point
// the log stopped). The scan tries every byte offset because frame lengths
// are untrusted once a frame is bad; a CRC32C match on arbitrary garbage is a
// ~2^-32 accident per offset, and a false hit only fails safe (refuse to
// start rather than silently drop batches).
func validRecordAfter(path string, off int64) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("ingest: reading wal segment: %w", err)
	}
	for i := off; i < int64(len(data)); i++ {
		if p, ok := binio.ParseFrame(data[i:], maxRecordSize); ok && len(p) > 0 {
			return true, nil
		}
	}
	return false, nil
}
