package binio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	long := strings.Repeat("z", 5000) // longer than the reader's buffer
	PutU32(w, 7)
	PutU64(w, math.MaxUint64)
	PutF64(w, -0.5)
	PutString(w, long)
	PutShortString(w, "id")
	PutU32(w, 3)
	for _, s := range []string{"b", "", "a"} {
		PutString(w, s)
	}
	w.WriteByte(9)
	w.Flush()
	appended := AppendShortString(AppendString(nil, long), "id")
	if !bytes.Contains(buf.Bytes(), appended) {
		t.Fatal("the append forms lay strings out differently from the writers")
	}

	// The same fields read back from the stream and from the bytes in memory.
	for _, r := range []*Reader{NewReader(bufio.NewReader(bytes.NewReader(buf.Bytes()))), NewBytesReader(buf.Bytes())} {
		if r.U32() != 7 || r.U64() != math.MaxUint64 || r.F64() != -0.5 {
			t.Fatal("fixed-width fields changed")
		}
		if r.String(len(long)) != long || r.ShortString(2) != "id" {
			t.Fatal("strings changed")
		}
		if got := r.Strings(3, 1, "set size"); strings.Join(got, ",") != "b,,a" {
			t.Fatalf("counted set %q", got)
		}
		if r.U8() != 9 || r.Err() != nil || r.Len() != 0 {
			t.Fatalf("trailing byte: %v", r.Err())
		}
		if r.U8(); r.Err() == nil {
			t.Fatal("read past the end")
		}
	}
	if r := NewBytesReader(AppendBool(AppendBool(nil, true), false)); !r.Bool() || r.Bool() || r.Err() != nil {
		t.Fatalf("flags changed: %v", r.Err())
	}
	if sealed := SealFrame(append(make([]byte, FrameHeader), "payload"...)); !bytes.Equal(sealed, AppendFrame(nil, []byte("payload"))) {
		t.Fatal("a frame sealed in place differs from an appended one")
	}
}

// TestReaderBoundsAndLatches: a length or count over the caller's cap is
// refused by name before it sizes anything, a short field is
// io.ErrUnexpectedEOF, and the first error sticks.
func TestReaderBoundsAndLatches(t *testing.T) {
	// Both sources must agree on every verdict but the one on a stream that
	// ends exactly at a field, which only a stream can tell from a short one.
	read := func(b []byte, f func(r *Reader)) error {
		stream, mem := NewReader(bufio.NewReader(bytes.NewReader(b))), NewBytesReader(b)
		f(stream)
		f(mem)
		if err := stream.Err(); fmt.Sprint(err) != fmt.Sprint(mem.Err()) && err != io.EOF {
			t.Errorf("stream: %v; in memory: %v", err, mem.Err())
		}
		return stream.Err()
	}
	huge := []byte{0xf8, 0xff, 0xff, 0xff, 'x'}
	for _, c := range []struct {
		name string
		f    func(r *Reader)
		want string
	}{
		{"count", func(r *Reader) { r.Count(10, "column count") }, "unreasonable column count 4294967288"},
		{"string", func(r *Reader) { r.String(1 << 24) }, "unreasonable string length 4294967288"},
		{"short string", func(r *Reader) { r.ShortString(4) }, "unreasonable string length 65528"},
		{"set", func(r *Reader) { r.Strings(1<<20, 8, "rare key count") }, "unreasonable rare key count 4294967288"},
		{"flag", func(r *Reader) { r.Bool() }, "flag byte 248 is neither 0 nor 1"},
	} {
		if err := read(huge, c.f); err == nil || err.Error() != c.want {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
	if err := read([]byte{1, 2, 3}, func(r *Reader) { r.U32() }); err != io.ErrUnexpectedEOF {
		t.Errorf("short u32: %v", err)
	}
	// A set whose count is within its cap but whose strings are missing
	// reserves no more than 1<<16 entries and fails on the stream.
	lie := []byte{0xff, 0xff, 0x0f, 0}
	if err := read(lie, func(r *Reader) {
		if got := r.Strings(1<<20, 8, "set size"); cap(got) > 1<<16 {
			t.Errorf("reserved %d entries", cap(got))
		}
	}); err != io.EOF {
		t.Errorf("lying set: %v", err)
	}
	first := errors.New("first")
	err := read([]byte{1, 0, 0, 0, 2, 0, 0, 0}, func(r *Reader) {
		r.Fail(first)
		if r.U32() != 0 || r.String(8) != "" {
			t.Error("a read after a latched error returned data")
		}
		r.Fail(errors.New("second"))
	})
	if err != first {
		t.Errorf("latched %v, want the first error", err)
	}
}

// capReader fails the test if ReadFrame hands it a buffer larger than the
// frame cap allows: the proof that a lying length allocates nothing.
type capReader struct {
	t     *testing.T
	r     io.Reader
	limit int
}

func (c capReader) Read(p []byte) (int, error) {
	if cap(p) > c.limit {
		c.t.Fatalf("read into a %d-byte buffer, cap %d", cap(p), c.limit)
	}
	return c.r.Read(p)
}

// FuzzFrame holds the frame reader to its contract on arbitrary bytes and
// caps: a payload or an error, never a panic or an allocation past the cap;
// an accepted frame re-encodes to the bytes it was read from; and the stream
// read and the byte-slice check (the WAL's scan for intact records past
// damage) agree.
func FuzzFrame(f *testing.F) {
	f.Add(AppendFrame(nil, []byte("payload")), 64)
	f.Add(AppendFrame(nil, nil), 0)
	f.Add(AppendFrame(AppendFrame(nil, []byte("a")), []byte("bc")), 1)
	f.Add(AppendFrame(nil, []byte("over the cap")), 4)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1}, 1<<20)
	f.Add([]byte{3, 0, 0}, 8)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		if max < 0 {
			max = -(max + 1)
		}
		max %= 1 << 16
		p, err := ReadFrame(capReader{t, bytes.NewReader(data), FrameHeader + max}, nil, max)
		q, ok := ParseFrame(data, max)
		if (err == nil) != ok {
			t.Fatalf("stream read: %v; byte-slice check: %v", err, ok)
		}
		if err != nil {
			if p != nil {
				t.Fatal("a payload with an error")
			}
			if errors.Is(err, io.EOF) != (len(data) == 0) {
				t.Fatalf("io.EOF is for an empty stream only: %v on %d bytes", err, len(data))
			}
			return
		}
		if len(p) > max || !bytes.Equal(p, q) {
			t.Fatalf("payload of %d bytes (cap %d); byte-slice check saw %d", len(p), max, len(q))
		}
		if re := AppendFrame(nil, p); !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("an accepted frame re-encodes to other bytes")
		}
		again, err := ReadFrame(bytes.NewReader(data), make([]byte, 3, 5), max)
		if err != nil || !bytes.Equal(again, p) {
			t.Fatalf("a reused buffer reads %q, %v", again, err)
		}
	})
}
