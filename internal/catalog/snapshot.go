// Package catalog makes the pre-built sample family a durable, managed
// artifact instead of a one-shot file. It has three layers:
//
//   - snapshot.go: a self-verifying container format — a magic header, the
//     payload split into checksummed binio frames, and a checksummed trailer
//     recording the total length and whole-payload checksum. Truncation at
//     any byte offset and any flipped bit are detected with a precise error
//     instead of being decoded into garbage sample tables.
//   - atomic.go: crash-safe file replacement (temp file in the same
//     directory, fsync, atomic rename, directory fsync), so a crash mid-save
//     leaves either the old file or the new one, never a torn mix.
//   - catalog.go: a generation directory (gen-NNN.snap files under a
//     manifest) with retention pruning and newest→oldest startup recovery.
//
// BlinkDB and VerdictDB both treat the sample store as a rebuildable catalog
// managed by the system; this package gives the reproduction the same
// property. The container is payload-agnostic; the one payload this program
// writes into it is an ingest checkpoint (ingest.WriteCheckpoint), and
// ingest.DecodeSnapshot is the one reader.
package catalog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dynsample/internal/binio"
	"dynsample/internal/faults"
)

// Snapshot container constants. The chunk size bounds both the memory a
// reader commits before verifying a checksum and the blast radius of a
// corrupt length prefix: a reader never allocates more than maxChunkSize on
// the word of an unverified header.
const (
	snapshotMagic = "DSSNAP01" // 8 bytes; the version is part of the magic
	trailerMagic  = "DSTR"
	chunkSize     = 64 << 10
	maxChunkSize  = 1 << 20
)

// ErrCorrupt wraps every integrity failure detected while reading a
// snapshot, so callers can distinguish "this file is damaged" (try an older
// generation) from I/O errors.
var ErrCorrupt = errors.New("catalog: corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// WriteSnapshot writes one snapshot to w: the magic header, the bytes
// produced by payload split into checksummed chunks, an end-of-chunks
// marker, and the checksummed trailer. payload receives a buffered writer;
// it must not retain it.
//
// Fault points: faults.PointSnapshotWrite (ErrHook, per chunk) injects write
// failures; faults.PointSnapshotChunk (DataHook, per encoded frame) may flip
// bits to plant corruption for recovery tests.
func WriteSnapshot(w io.Writer, payload func(io.Writer) error) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return fmt.Errorf("catalog: writing snapshot header: %w", err)
	}
	cw := &chunkWriter{w: w}
	if err := payload(cw); err != nil {
		return err
	}
	return cw.finish()
}

// chunkWriter buffers payload bytes and emits one binio frame per chunkSize
// bytes. finish flushes the final partial chunk, the empty frame that ends
// the chunks, and the trailer.
type chunkWriter struct {
	w          io.Writer
	buf        []byte
	frame      []byte // the encoded chunk, reused from chunk to chunk
	chunkIndex int
	totalLen   uint64
	payloadCRC uint32
}

func (cw *chunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		take := chunkSize - len(cw.buf)
		if take > len(p) {
			take = len(p)
		}
		cw.buf = append(cw.buf, p[:take]...)
		p = p[take:]
		if len(cw.buf) == chunkSize {
			if err := cw.flushChunk(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

func (cw *chunkWriter) flushChunk() error {
	if err := faults.FireErr(faults.PointSnapshotWrite, cw.chunkIndex); err != nil {
		return fmt.Errorf("catalog: writing snapshot chunk %d: %w", cw.chunkIndex, err)
	}
	// One frame buffer serves every chunk: a fresh one per chunk would
	// allocate the snapshot's whole size again while it is being saved.
	cw.frame = binio.AppendFrame(cw.frame[:0], cw.buf)
	cw.totalLen += uint64(len(cw.buf))
	cw.payloadCRC = binio.Checksum(cw.payloadCRC, cw.buf)
	faults.FireData(faults.PointSnapshotChunk, cw.chunkIndex, cw.frame)
	cw.chunkIndex++
	cw.buf = cw.buf[:0]
	if _, err := cw.w.Write(cw.frame); err != nil {
		return fmt.Errorf("catalog: writing snapshot chunk: %w", err)
	}
	return nil
}

// finish writes any buffered partial chunk, the empty end frame, and the
// trailer: [magic][payload len u64][payload crc u32][chunk count u32][crc u32
// over the preceding trailer bytes].
func (cw *chunkWriter) finish() error {
	if len(cw.buf) > 0 {
		if err := cw.flushChunk(); err != nil {
			return err
		}
	}
	if err := faults.FireErr(faults.PointSnapshotWrite, cw.chunkIndex); err != nil {
		return fmt.Errorf("catalog: writing snapshot end frame: %w", err)
	}
	frame := append(binio.AppendFrame(nil, nil), trailerMagic...)
	frame = binary.LittleEndian.AppendUint64(frame, cw.totalLen)
	frame = binary.LittleEndian.AppendUint32(frame, cw.payloadCRC)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(cw.chunkIndex))
	frame = binary.LittleEndian.AppendUint32(frame, binio.Checksum(0, frame[binio.FrameHeader:]))
	faults.FireData(faults.PointSnapshotChunk, cw.chunkIndex, frame)
	if _, err := cw.w.Write(frame); err != nil {
		return fmt.Errorf("catalog: writing snapshot trailer: %w", err)
	}
	return nil
}

// ReadSnapshot verifies and decodes one snapshot from r. decode reads the
// payload through a verifying reader: every byte it sees has already passed
// its chunk checksum, so a decoder can never consume corrupt data. After
// decode returns, any unread payload is drained and the end marker and
// trailer are verified — so a nil return means the entire file was intact,
// not merely the prefix the decoder happened to read. Integrity failures
// are reported as errors wrapping ErrCorrupt.
//
// decode may be invoked on a snapshot whose tail later fails verification;
// callers must discard its result unless ReadSnapshot returns nil.
func ReadSnapshot(r io.Reader, decode func(io.Reader) error) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return corruptf("reading header: %v", err)
	}
	if string(magic) != snapshotMagic {
		return corruptf("bad snapshot magic %q", magic)
	}
	cr := &chunkReader{r: br}
	if err := decode(cr); err != nil {
		return err
	}
	// Drain whatever payload the decoder left unread, then verify the
	// trailer against the running totals.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return err
	}
	return cr.verifyTrailer()
}

// chunkReader yields the payload of a chunked stream, verifying each
// chunk's checksum before handing out its bytes.
type chunkReader struct {
	r          *bufio.Reader
	chunk      []byte // verified bytes not yet consumed
	data       []byte // chunk's backing buffer, reused from chunk to chunk
	chunkIndex int
	totalLen   uint64
	payloadCRC uint32
	atEnd      bool // end frame seen
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	for len(cr.chunk) == 0 {
		if cr.atEnd {
			return 0, io.EOF
		}
		if err := cr.nextChunk(); err != nil {
			return 0, err
		}
	}
	n := copy(p, cr.chunk)
	cr.chunk = cr.chunk[n:]
	return n, nil
}

func (cr *chunkReader) nextChunk() error {
	if err := faults.FireErr(faults.PointSnapshotRead, cr.chunkIndex); err != nil {
		return fmt.Errorf("catalog: reading snapshot chunk %d: %w", cr.chunkIndex, err)
	}
	// The previous chunk is fully consumed by now (Read only asks for the
	// next one then), so its buffer takes this chunk's bytes.
	data, err := binio.ReadFrame(cr.r, cr.data, maxChunkSize)
	if err != nil {
		return corruptf("chunk %d: %v", cr.chunkIndex, err)
	}
	if len(data) == 0 {
		cr.atEnd = true
		return nil
	}
	cr.data, cr.chunk = data, data
	cr.chunkIndex++
	cr.totalLen += uint64(len(data))
	cr.payloadCRC = binio.Checksum(cr.payloadCRC, data)
	return nil
}

// verifyTrailer checks the trailer against the running payload totals and
// requires clean EOF after it — trailing garbage means the file is not what
// the writer produced.
func (cr *chunkReader) verifyTrailer() error {
	if !cr.atEnd {
		// Drained to EOF without seeing the end frame: nextChunk already
		// errored, but guard against misuse.
		return corruptf("missing end frame")
	}
	tlen := len(trailerMagic) + 8 + 4 + 4 + 4
	trailer := make([]byte, tlen)
	if _, err := io.ReadFull(cr.r, trailer); err != nil {
		return corruptf("reading trailer: %v", err)
	}
	body, sum := trailer[:tlen-4], binary.LittleEndian.Uint32(trailer[tlen-4:])
	if want := binio.Checksum(0, body); sum != want {
		return corruptf("trailer checksum %08x, want %08x", sum, want)
	}
	if string(body[:len(trailerMagic)]) != trailerMagic {
		return corruptf("bad trailer magic %q", body[:len(trailerMagic)])
	}
	gotLen := binary.LittleEndian.Uint64(body[len(trailerMagic):])
	gotCRC := binary.LittleEndian.Uint32(body[len(trailerMagic)+8:])
	gotChunks := binary.LittleEndian.Uint32(body[len(trailerMagic)+12:])
	if gotLen != cr.totalLen {
		return corruptf("payload length %d, trailer says %d", cr.totalLen, gotLen)
	}
	if gotCRC != cr.payloadCRC {
		return corruptf("payload checksum %08x, trailer says %08x", cr.payloadCRC, gotCRC)
	}
	if int(gotChunks) != cr.chunkIndex {
		return corruptf("%d chunks read, trailer says %d", cr.chunkIndex, gotChunks)
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return corruptf("trailing bytes after trailer")
	}
	return nil
}
