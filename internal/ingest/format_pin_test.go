package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dynsample/internal/core"
)

// TestCheckpointFixtureReencodes holds the DSCP0001 checkpoint to the bytes
// an earlier build wrote: testdata/checkpoint.dscp (three idempotency ids and
// a delta over a 500-row base) decodes, restores onto the regenerated base,
// and writes back to the identical bytes.
func TestCheckpointFixtureReencodes(t *testing.T) {
	want, err := os.ReadFile("testdata/checkpoint.dscp")
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.IDs) != 3 || s.Delta == nil || s.Delta.NumRows() == 0 {
		t.Fatalf("fixture has %d ids and delta %v, want 3 and some rows", len(s.IDs), s.Delta)
	}
	sys := core.NewSystem(ingestDB(t, int(s.Checkpoint.BaseRows)))
	if err := s.Restore(sys, "smallgroup"); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteCheckpoint(&got, s.Prepared, *s.Checkpoint, sys.DB(), s.IDs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoded checkpoint differs: %d bytes, fixture %d", got.Len(), len(want))
	}
}

// TestWALFixtureReencodes holds the WAL segment and batch record formats to
// the bytes an earlier build wrote: testdata/wal holds two batches around a
// no-op frame; replayed, decoded, re-encoded and appended to a fresh log,
// they make the identical segment.
func TestWALFixtureReencodes(t *testing.T) {
	const seg = "wal-0000000000.seg"
	want, err := os.ReadFile(filepath.Join("testdata/wal", seg))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	var batches, noops int
	_, torn, err := Replay("testdata/wal", func(p []byte) error {
		re := EncodeNoop()
		if IsNoop(p) {
			noops++
		} else {
			b, err := DecodeBatch(p)
			if err != nil {
				return err
			}
			if re, err = EncodeBatch(b); err != nil {
				return err
			}
			batches++
		}
		return w.Append(re)
	})
	if err != nil || torn {
		t.Fatalf("replaying the fixture: torn %v, %v", torn, err)
	}
	if batches != 2 || noops != 1 {
		t.Fatalf("fixture holds %d batches and %d no-ops, want 2 and 1", batches, noops)
	}
	w.Close()
	got, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded segment differs: %d bytes, fixture %d", len(got), len(want))
	}
}
