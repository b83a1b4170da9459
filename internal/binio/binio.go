// Package binio is the one encoding of the bytes this program keeps on disk.
// The sample store, the table format, the checkpoint, the WAL's batch
// records and segments, and the catalog container all lay out their fields
// and frames through it; each owns only the order of its fields.
//
// Fields are little-endian. A string is [len u32][bytes], a short string
// (a batch id) [len u16][bytes], and a counted set [count u32] followed by
// that many strings (its writer, which must order the set, is the caller's). A reader refuses any length or count over the cap its
// caller names, so a corrupt or hostile stream produces an error, never an
// allocation of the stream's choosing.
//
// A frame is [len u32][crc32c(len‖payload) u32][payload]. A WAL segment is
// its magic followed by frames; the catalog container is frames ended by one
// with an empty payload.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// FrameHeader is the size of a frame's length and checksum.
const FrameHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var le = binary.LittleEndian

// Checksum extends crc over p with the CRC-32C (Castagnoli) polynomial,
// which amd64 and arm64 compute in hardware.
func Checksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = le.AppendUint32(dst, uint32(len(payload)))
	sum := Checksum(Checksum(0, dst[len(dst)-4:]), payload)
	return append(le.AppendUint32(dst, sum), payload...)
}

// ParseFrame reports whether b begins with a whole frame of at most max
// payload bytes whose checksum holds; the payload is good only then.
func ParseFrame(b []byte, max int) ([]byte, bool) {
	if len(b) < FrameHeader {
		return nil, false
	}
	n := uint64(le.Uint32(b))
	if n > uint64(max) || n > uint64(len(b)-FrameHeader) {
		return nil, false
	}
	p := b[FrameHeader : FrameHeader+n]
	return p, le.Uint32(b[4:]) == Checksum(Checksum(0, b[:4]), p)
}

// ReadFrame reads one frame from r and returns its payload, read into buf's
// storage when it fits there (so the payload is only good until buf is
// reused). A length over max is refused before anything is allocated for
// it. The error is io.EOF exactly when r ends before the frame's first byte.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	var h [FrameHeader]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, err
	}
	n := le.Uint32(h[:])
	if uint64(n) > uint64(max) {
		return nil, fmt.Errorf("frame length %d exceeds %d", n, max)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	p := buf[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, fmt.Errorf("frame body: %v", err) // not io.EOF: the frame began
	}
	if sum, want := le.Uint32(h[4:]), Checksum(Checksum(0, h[:4]), p); sum != want {
		return nil, fmt.Errorf("frame checksum %08x, want %08x", sum, want)
	}
	return p, nil
}

// A Reader reads fields from the caller's buffered stream, which stays
// usable between reads (a table format reader can take its turn on it), or
// from a record already in memory (a WAL record). The first error is
// latched: every later read returns a zero value, so a decoder checks Err
// once after a run of fields.
type Reader struct {
	r   *bufio.Reader // nil over a record in memory
	b   []byte        // the unread rest of that record
	err error
}

// NewReader returns a Reader over r.
func NewReader(r *bufio.Reader) *Reader { return &Reader{r: r} }

// NewBytesReader returns a Reader over a record held in memory.
func NewBytesReader(p []byte) *Reader { return &Reader{b: p} }

// Len returns how many bytes of a record in memory are unread.
func (r *Reader) Len() int { return len(r.b) }

// Err returns the first error a read met or Fail latched, or nil.
func (r *Reader) Err() error { return r.err }

// Fail latches err, a decoder's own verdict on what it read, unless an
// error is latched already.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// next returns the next n bytes, or nil once an error is latched. They alias
// the record in memory, or the stream's buffer until the next read when they
// fit in it.
func (r *Reader) next(n int) (b []byte) {
	switch {
	case r.err != nil:
	case r.r == nil && n <= len(r.b):
		b, r.b = r.b[:n], r.b[n:]
	case r.r == nil:
		r.err = io.ErrUnexpectedEOF
	case n > r.r.Size():
		b = make([]byte, n)
		_, r.err = io.ReadFull(r.r, b)
	default:
		if b, r.err = r.r.Peek(n); r.err == nil {
			r.r.Discard(n)
		} else if r.err == io.EOF && len(b) > 0 {
			r.err = io.ErrUnexpectedEOF
		}
	}
	if r.err != nil {
		return nil
	}
	return b
}

var zero [8]byte

// fixed returns the next n ≤ 8 bytes, or zeros once an error is latched.
func (r *Reader) fixed(n int) []byte {
	if b := r.next(n); b != nil {
		return b
	}
	return zero[:n]
}

// U8, U32, U64 and F64 read fixed-width fields.
func (r *Reader) U8() byte     { return r.fixed(1)[0] }
func (r *Reader) U32() uint32  { return le.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64  { return le.Uint64(r.fixed(8)) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) bound(n uint64, max int, what string) int {
	if n > uint64(max) {
		r.Fail(fmt.Errorf("unreasonable %s %d", what, n))
		return 0
	}
	return int(n)
}

// Count reads a u32 count and refuses one over max; what names it in the
// error ("column count").
func (r *Reader) Count(max int, what string) int { return r.bound(uint64(r.U32()), max, what) }

// String reads a string of at most max bytes.
func (r *Reader) String(max int) string { return r.text(r.Count(max, "string length")) }

// ShortString reads a short string of at most max bytes.
func (r *Reader) ShortString(max int) string {
	return r.text(r.bound(uint64(le.Uint16(r.fixed(2))), max, "string length"))
}

func (r *Reader) text(n int) string { return string(r.next(n)) }

// Strings reads a counted set of at most max strings (what names the count
// in the error), each of at most maxLen bytes.
func (r *Reader) Strings(max, maxLen int, what string) []string {
	n := r.Count(max, what)
	// Storage grows as strings arrive: a count that lies within its cap costs
	// little before the stream runs dry.
	out := make([]string, 0, min(n, 1<<16))
	for ; n > 0 && r.err == nil; n-- {
		out = append(out, r.String(maxLen))
	}
	return out
}

// PutU32, PutU64 and PutF64 write fixed-width fields. Every writer encodes
// into w's free buffer (AvailableBuffer), so a field costs no allocation.
func PutU32(w *bufio.Writer, v uint32)  { w.Write(le.AppendUint32(w.AvailableBuffer(), v)) }
func PutU64(w *bufio.Writer, v uint64)  { w.Write(le.AppendUint64(w.AvailableBuffer(), v)) }
func PutF64(w *bufio.Writer, v float64) { PutU64(w, math.Float64bits(v)) }

// PutString writes s as a string.
func PutString(w *bufio.Writer, s string) { PutU32(w, uint32(len(s))); w.WriteString(s) }

// PutShortString writes s as a short string.
func PutShortString(w *bufio.Writer, s string) {
	w.Write(le.AppendUint16(w.AvailableBuffer(), uint16(len(s))))
	w.WriteString(s)
}

// AppendString and AppendShortString are PutString and PutShortString for
// a record built in memory.
func AppendString(b []byte, s string) []byte { return append(le.AppendUint32(b, uint32(len(s))), s...) }

func AppendShortString(b []byte, s string) []byte {
	return append(le.AppendUint16(b, uint16(len(s))), s...)
}
