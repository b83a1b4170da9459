package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynsample/internal/core"
)

// TestCheckpointFixtureReencodes holds the DSCP0001 checkpoint to the bytes
// an earlier build wrote: testdata/checkpoint.dscp (three idempotency ids and
// a delta over a 500-row base, its family built with ingestSGCfg and
// maintained online through the three batches, in store version 7) decodes,
// records the config that built its family, restores onto the regenerated
// base, and writes back to the identical bytes.
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
	if err := core.NewSmallGroup(ingestSGCfg).CheckFamily(s.Prepared); err != nil {
		t.Fatal(err)
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

// TestCheckpointFixtureV4Refused: testdata/checkpoint-v4.dscp embeds a
// version 4 store, which does not record the config that built its family;
// decoding refuses it by the store's version.
func TestCheckpointFixtureV4Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint-v4.dscp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "store version 4") {
		t.Fatalf("decoding a checkpoint over a version 4 store: %v, want it refused by the store's version", err)
	}
}

// TestCheckpointFixtureV5Refused: testdata/checkpoint-v5.dscp embeds a
// version 5 store, which stores its small group tables flattened; decoding
// refuses it by the store's version.
func TestCheckpointFixtureV5Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint-v5.dscp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "store version 5") {
		t.Fatalf("decoding a checkpoint over a version 5 store: %v, want it refused by the store's version", err)
	}
}

// TestCheckpointFixtureV6Refused: testdata/checkpoint-v6.dscp embeds a
// version 6 store, which stores its overall sample flattened; decoding
// refuses it by the store's version.
func TestCheckpointFixtureV6Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint-v6.dscp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "stores its overall sample flattened") {
		t.Fatalf("decoding a checkpoint over a version 6 store: %v, want it refused by the store's version", err)
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
