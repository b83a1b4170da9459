package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// FuzzWALDecode proves the batch decoder never panics and never
// over-allocates on arbitrary bytes — the payload it sees normally passed a
// CRC, but a hostile file dropped into the wal dir must still only produce
// an error. Seeds include valid encodings and targeted mutants so the
// fuzzer starts deep inside the format.
func FuzzWALDecode(f *testing.F) {
	mk := func(seq uint64, id string, rows [][]engine.Value) []byte {
		p, err := EncodeBatch(&Batch{Seq: seq, ID: id, Rows: rows})
		if err != nil {
			f.Fatal(err)
		}
		return p
	}
	valid := mk(7, "req-42", [][]engine.Value{
		{engine.StringVal("A0"), engine.IntVal(11), engine.FloatVal(2.5)},
		{engine.StringVal("rare"), engine.IntVal(-3), engine.FloatVal(0)},
	})
	f.Add(valid)
	f.Add(mk(1, "", [][]engine.Value{{engine.IntVal(1)}}))
	f.Add(valid[:len(valid)/2]) // truncated mid-row
	f.Add(valid[:11])           // dies inside the header
	for _, off := range []int{0, 1, 9, 13, 20, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 1 << (off % 8) // bit-flipped mutants
		f.Add(mut)
	}
	// Header lying about a huge row count (nrows sits after the 11-byte
	// fixed header plus the 6-byte id): must error, not allocate.
	lie := append([]byte(nil), valid...)
	lie[17], lie[18], lie[19], lie[20] = 0xff, 0xff, 0xff, 0x7f
	f.Add(lie)
	f.Add([]byte{})
	f.Add([]byte{batchVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if b == nil {
			t.Fatal("nil batch with nil error")
		}
		// The encoding is canonical: a successfully decoded payload must
		// re-encode to the identical bytes.
		re, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("decoded batch fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip changed bytes: %d in, %d out", len(data), len(re))
		}
	})
}

// snapshotStreams returns the two payloads DecodeSnapshot reads, over one
// 500-row base: a checkpoint carrying three idempotency ids and a delta of
// ingested rows, and the bare SaveSmallGroup stream of the family as
// pre-processing built it.
func snapshotStreams(t testing.TB) (checkpoint, bare []byte) {
	t.Helper()
	sys, c, _ := newCheckpointSystem(t, 500, t.TempDir(), Config{Online: core.OnlineConfig{Seed: 96}})
	p, _ := sys.Prepared("smallgroup")
	var ck, raw bytes.Buffer
	if err := core.SaveSmallGroup(&raw, p); err != nil {
		t.Fatal(err)
	}
	rng := randx.New(81)
	for i := 0; i < 3; i++ {
		if _, err := c.Ingest(fmt.Sprintf("b-%d", i), ingestRows(rng, 5)); err != nil {
			t.Fatal(err)
		}
	}
	p, _ = sys.Prepared("smallgroup")
	if err := WriteCheckpoint(&ck, p, Checkpoint{DataGen: 3, BaseRows: 500, Seg: 1, Off: 64}, sys.DB(), c.identEntries()); err != nil {
		t.Fatal(err)
	}
	return ck.Bytes(), raw.Bytes()
}

// FuzzDecodeSnapshot holds the one reader of catalog payloads to its
// contract on arbitrary bytes, alone and behind the catalog container as
// recovery reads a generation: an error, or a Snapshot with both a
// Checkpoint and a Prepared — never a panic, never a nil Checkpoint. With an
// error it returns a Snapshot only for a family in a store version this
// build does not read, and then without the family (testdata's version 7
// checkpoint is a seed).
func FuzzDecodeSnapshot(f *testing.F) {
	ck, bare := snapshotStreams(f)
	for _, valid := range [][]byte{ck, bare} {
		f.Add(valid)
		f.Add(valid[:len(valid)/2]) // truncated
		f.Add(valid[:41])           // dies inside the header
		for _, off := range []int{3, 9, 44, len(valid) / 3, len(valid) - 8} {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 1 << (off % 8) // bit-flipped mutants
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(ckMagic))
	f.Add(wrapGeneration(f, ck))
	bad := wrapGeneration(f, ck)
	bad[len(bad)-1] ^= 1 // the trailer's own checksum: the payload decodes, the container fails
	f.Add(bad)
	old, err := os.ReadFile("testdata/checkpoint-v7.dscp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(s *Snapshot, err error) {
			if err == nil && (s == nil || s.Checkpoint == nil || s.Prepared == nil) {
				t.Fatalf("decoded %+v with nil error", s)
			}
			if err != nil && s != nil && (!errors.Is(err, core.ErrStoreVersion) || s.Checkpoint == nil || s.Prepared != nil) {
				t.Fatalf("decoded %+v with error %v", s, err)
			}
		}
		check(DecodeSnapshot(bytes.NewReader(data)))
		check(readGeneration(data))
	})
}

// wrapGeneration puts a payload in the catalog container, as a catalog
// generation file holds it.
func wrapGeneration(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := catalog.WriteSnapshot(&buf, func(w io.Writer) error { _, err := w.Write(payload); return err }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readGeneration reads b as recovery reads a catalog generation: the
// container's checks around DecodeSnapshot. Like recovery it keeps what the
// decode built only when the container verifies, or when the decode's own
// error is a store version this build does not read: a payload that decodes
// under a trailer that fails its check is discarded (catalog.ReadSnapshot).
func readGeneration(b []byte) (*Snapshot, error) {
	var s *Snapshot
	var derr error
	err := catalog.ReadSnapshot(bytes.NewReader(b), func(r io.Reader) error {
		s, derr = DecodeSnapshot(r)
		return derr
	})
	if err != nil && !errors.Is(derr, core.ErrStoreVersion) {
		return nil, err
	}
	return s, err
}
