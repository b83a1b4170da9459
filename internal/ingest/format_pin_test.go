package ingest

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/randx"
)

// TestCheckpointFixtureReencodes holds the DSCP0001 checkpoint to the bytes
// an earlier build wrote: testdata/checkpoint.dscp (three idempotency ids and
// a delta over a 500-row base, its family built with ingestSGCfg and
// maintained online through the three batches, in store version 8) decodes,
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

// TestCheckpointFixtureV7Refused: testdata/checkpoint-v7.dscp, the
// checkpoint testdata/checkpoint.dscp holds as a build storing membership
// masks wrote it, is refused for its family's store version, but decodes its
// data: the delta and the ids.
func TestCheckpointFixtureV7Refused(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint-v7.dscp")
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSnapshot(bytes.NewReader(old))
	if !errors.Is(err, core.ErrStoreVersion) || !strings.Contains(err.Error(), "stores membership masks") {
		t.Fatalf("decoding a checkpoint over a version 7 store: %v, want it refused by the store's version", err)
	}
	if s == nil || s.Prepared != nil || len(s.IDs) != 3 || s.Delta == nil || s.Delta.NumRows() == 0 {
		t.Fatalf("decoded %+v, want the data without the family", s)
	}
}

// TestRecoverKeepsTheDataOfAnOlderStore starts over a catalog whose one
// generation an earlier build wrote (testdata/checkpoint-v7.dscp: three
// batches over a 500-row base, the family in store version 7). The family
// cannot be read, but the delta rows and batch ids live nowhere else:
// Recover must restore them, build the configured family over base plus
// delta, save it as generation 2 and answer a retried batch id as a
// duplicate.
func TestRecoverKeepsTheDataOfAnOlderStore(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint-v7.dscp")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := DecodeSnapshot(bytes.NewReader(old))
	ck := s.Checkpoint
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Save(func(w io.Writer) error { _, err := w.Write(old); return err }); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := int(ck.BaseRows)
	sys := core.NewSystem(ingestDB(t, base))
	rec, err := Recover(sys, cat, w, core.NewSmallGroup(ingestSGCfg), Config{Online: core.OnlineConfig{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Skipped) != 1 || rec.Skipped[0].Generation != 1 || !strings.Contains(rec.Skipped[0].Err.Error(), "stores membership masks") {
		t.Fatalf("skipped %+v, want generation 1's family refused for its store version", rec.Skipped)
	}
	if rec.Source != "preprocess" || rec.Generation != 2 || rec.SaveErr != nil || *rec.Checkpoint != *ck {
		t.Fatalf("recovery = %q generation %d (save: %v), checkpoint %+v; want a build over the checkpoint's data saved as generation 2",
			rec.Source, rec.Generation, rec.SaveErr, rec.Checkpoint)
	}
	if got, want := sys.DB().NumRows(), base+s.Delta.NumRows(); got != want || sys.DataGeneration() != ck.DataGen {
		t.Fatalf("%d rows at data generation %d, want %d at %d", got, sys.DataGeneration(), want, ck.DataGen)
	}
	p, _ := sys.Prepared("smallgroup")
	if p.DataGeneration() != ck.DataGen || p.Meta().BaseRows != int64(sys.DB().NumRows()) {
		t.Fatalf("family at data generation %d over %d rows, want %d over all %d", p.DataGeneration(), p.Meta().BaseRows, ck.DataGen, sys.DB().NumRows())
	}
	for _, e := range s.IDs {
		if _, err := rec.Coordinator.Ingest(e.ID, ingestRows(randx.New(1), 4)); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("re-ingesting %s: err = %v, want ErrDuplicate", e.ID, err)
		}
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
	_, _, _, torn, err := replay("testdata/wal", func(p []byte) error {
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
