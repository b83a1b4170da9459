package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dynsample/internal/binio"
	"dynsample/internal/engine"
)

// Batch record format (the payload inside one WAL record), in binio's field
// layout:
//
//	[version u8][seq u64][id: short string][nrows u32][ncols u32]
//	then nrows*ncols values, row-major, each
//	[type u8][int64 | float64 bits | string]
//
// Values are in the database's view column order (engine.Database.Columns),
// the same order the Appender consumes. Every count is capped before it
// sizes an allocation: the decoder sees bytes that already passed the WAL
// checksum, but the caps keep a logic bug — or a hostile file dropped into
// the wal dir — from turning into a multi-gigabyte allocation. EncodeBatch
// refuses every value DecodeBatch refuses: checkValue is the encoder's test
// and the decoder's for floats and types, and it holds strings to the cap
// the decoder reads them under. So an acknowledged record always replays.
const (
	batchVersion = 1

	// noopVersion tags a no-op control frame: a record that carries no batch
	// and exists only to prove the log is writable again (the degraded-mode
	// probe appends one after a disk fault clears). Replay skips it without
	// consuming a sequence number.
	noopVersion = 0xFF

	maxBatchRows = 1 << 18 // rows per batch
	maxBatchCols = 1 << 12 // columns per row
	maxBatchID   = 1 << 10 // client batch id bytes
	maxValueLen  = 1 << 20 // string value bytes
)

// EncodeNoop returns the payload of a no-op control frame (see noopVersion).
func EncodeNoop() []byte { return []byte{noopVersion} }

// IsNoop reports whether a WAL record payload is a no-op control frame.
func IsNoop(p []byte) bool { return len(p) == 1 && p[0] == noopVersion }

// Batch is one decoded ingest batch.
type Batch struct {
	// Seq is the coordinator-assigned sequence number (1-based, contiguous).
	Seq uint64
	// ID is the client's idempotency key; may be empty.
	ID string
	// Rows are the appended rows in view column order.
	Rows [][]engine.Value
}

// EncodeBatch serialises a batch into a WAL record payload.
func EncodeBatch(b *Batch) ([]byte, error) {
	if len(b.Rows) == 0 || len(b.Rows) > maxBatchRows {
		return nil, fmt.Errorf("ingest: batch has %d rows, want 1..%d", len(b.Rows), maxBatchRows)
	}
	ncols := len(b.Rows[0])
	if ncols == 0 || ncols > maxBatchCols {
		return nil, fmt.Errorf("ingest: batch has %d columns, want 1..%d", ncols, maxBatchCols)
	}
	if len(b.ID) > maxBatchID {
		return nil, fmt.Errorf("ingest: batch id is %d bytes, max %d", len(b.ID), maxBatchID)
	}
	out := make([]byte, 0, 32+len(b.Rows)*ncols*9)
	out = append(out, batchVersion)
	out = binary.LittleEndian.AppendUint64(out, b.Seq)
	out = binio.AppendShortString(out, b.ID)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Rows)))
	out = binary.LittleEndian.AppendUint32(out, uint32(ncols))
	for _, row := range b.Rows {
		if len(row) != ncols {
			return nil, fmt.Errorf("ingest: ragged batch: row has %d values, want %d", len(row), ncols)
		}
		for _, v := range row {
			if err := checkValue(v); err != nil {
				return nil, fmt.Errorf("ingest: %w", err)
			}
			out = append(out, byte(v.T))
			switch v.T {
			case engine.Int:
				out = binary.LittleEndian.AppendUint64(out, uint64(v.I))
			case engine.Float:
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.F))
			default:
				out = binio.AppendString(out, v.S)
			}
		}
	}
	return out, nil
}

// checkValue is the test EncodeBatch puts every value to. DecodeBatch puts
// floats and unknown types to it, and reads strings under the same cap.
func checkValue(v engine.Value) error {
	switch {
	case v.T > engine.String:
		return fmt.Errorf("unsupported value type %d", v.T)
	case v.T == engine.Float && (math.IsNaN(v.F) || math.IsInf(v.F, 0)):
		return errors.New("non-finite float value in batch")
	case len(v.S) > maxValueLen:
		return fmt.Errorf("string value is %d bytes, max %d", len(v.S), maxValueLen)
	}
	return nil
}

// DecodeBatch parses a WAL record payload. Every length is validated
// against both its cap and the remaining input before it is trusted.
func DecodeBatch(p []byte) (*Batch, error) {
	in := binio.NewBytesReader(p)
	if ver := in.U8(); in.Err() == nil && ver != batchVersion {
		return nil, fmt.Errorf("ingest: unsupported batch version %d", ver)
	}
	b := &Batch{Seq: in.U64(), ID: in.ShortString(maxBatchID)}
	nrows, ncols := in.Count(maxBatchRows, "batch row count"), in.Count(maxBatchCols, "batch column count")
	// Each value is at least 2 bytes on the wire; refuse impossible counts
	// before allocating row storage proportional to them.
	switch left := in.Len(); {
	case in.Err() != nil:
	case nrows == 0 || ncols == 0:
		in.Fail(fmt.Errorf("empty batch: %d rows of %d columns", nrows, ncols))
	case nrows*ncols*2 > left:
		in.Fail(fmt.Errorf("batch declares %d values but only %d bytes remain", nrows*ncols, left))
	default:
		b.Rows = make([][]engine.Value, nrows)
	}
	for r := 0; r < len(b.Rows) && in.Err() == nil; r++ {
		row := make([]engine.Value, ncols)
		for c := range row {
			switch t := engine.Type(in.U8()); t {
			case engine.Int:
				row[c] = engine.IntVal(int64(in.U64()))
			case engine.String:
				row[c] = engine.StringVal(in.String(maxValueLen))
			default: // a float, or a type checkValue refuses
				row[c] = engine.Value{T: t, F: in.F64()}
				if err := checkValue(row[c]); err != nil {
					in.Fail(err)
				}
			}
		}
		b.Rows[r] = row
	}
	if left := in.Len(); in.Err() == nil && left != 0 {
		return nil, fmt.Errorf("ingest: %d trailing bytes after batch", left)
	}
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("ingest: decoding batch: %w", err)
	}
	return b, nil
}
