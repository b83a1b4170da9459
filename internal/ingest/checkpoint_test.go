package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/randx"
)

// ckSegBytes keeps segments tiny so a handful of batches spans several
// segments and checkpoint GC has something real to delete.
const ckSegBytes = 2048

// newCheckpointSystem is newIngestSystem with a small-segment WAL.
func newCheckpointSystem(t testing.TB, n int, dir string, cfg Config) (*core.System, *Coordinator, *WAL) {
	t.Helper()
	sys := core.NewSystem(ingestDB(t, n))
	if err := sys.AddStrategy(core.NewSmallGroup(ingestSGCfg)); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWALWith(dir, WALOptions{SegmentBytes: ckSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	c, err := New(sys, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, c, w
}

// rebuildNow runs Rebuild synchronously without persisting; the tests
// checkpoint as a separate step.
func rebuildNow(t testing.TB, c *Coordinator) {
	t.Helper()
	if _, err := Rebuild(c.sys, c, nil, core.NewSmallGroup(ingestSGCfg), "smallgroup", 0); err != nil {
		t.Fatal(err)
	}
}

// recoverNow restarts onto a regenerated n-row base the way cmd/aqpd does:
// Recover over the surviving catalog and WAL directories.
func recoverNow(t testing.TB, n int, cat *catalog.Catalog, walDir string, cfg Config) (*core.System, *Recovery) {
	t.Helper()
	var w *WAL
	if walDir != "" {
		var err error
		if w, err = OpenWALWith(walDir, WALOptions{SegmentBytes: ckSegBytes}); err != nil {
			t.Fatalf("reopening the wal: %v", err)
		}
		t.Cleanup(func() { w.Close() })
	}
	sys := core.NewSystem(ingestDB(t, n))
	rec, err := Recover(sys, cat, w, core.NewSmallGroup(ingestSGCfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.GCErr != nil || rec.SaveErr != nil {
		t.Fatalf("recovery: startup gc: %v, first save: %v", rec.GCErr, rec.SaveErr)
	}
	return sys, rec
}

// walSegIndexes lists the WAL segment indexes present in dir, ascending.
func walSegIndexes(t testing.TB, dir string) []uint64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var idx []uint64
	for _, e := range ents {
		var i uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%010d.seg", &i); err == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestCheckpointBoundedRestart is the checkpoint acceptance test: ingest N
// batches, rebuild and checkpoint, ingest M more, restart — startup must
// replay only the M post-checkpoint batches, the pre-checkpoint segments
// must be gone from disk, the idempotency window must survive the restart,
// and the answers must equal an uncrashed run's bit for bit.
func TestCheckpointBoundedRestart(t *testing.T) {
	t.Cleanup(faults.Reset)
	const n = 3000
	const N, M = 6, 3
	cfg := Config{Online: core.OnlineConfig{Seed: 91}}
	mkBatches := func() [][][]engine.Value {
		rng := randx.New(77)
		out := make([][][]engine.Value, N+M)
		for i := range out {
			out[i] = ingestRows(rng, 40)
		}
		return out
	}

	// Reference: the same sequence in one uncrashed process (rebuild
	// included — it changes the sample family), no checkpoint, no restart.
	sysRef, cRef, _ := newCheckpointSystem(t, n, t.TempDir(), cfg)
	ref := mkBatches()
	for i := 0; i < N; i++ {
		if _, err := cRef.Ingest(fmt.Sprintf("b-%d", i), ref[i]); err != nil {
			t.Fatal(err)
		}
	}
	rebuildNow(t, cRef)
	for i := N; i < N+M; i++ {
		if _, err := cRef.Ingest(fmt.Sprintf("b-%d", i), ref[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := answersOf(t, sysRef)

	// Live run: same sequence, but the rebuild persists a checkpoint.
	walDir := t.TempDir()
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys1, c1, w1 := newCheckpointSystem(t, n, walDir, cfg)
	batches := mkBatches()
	for i := 0; i < N; i++ {
		if _, err := c1.Ingest(fmt.Sprintf("b-%d", i), batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := len(walSegIndexes(t, walDir))
	rebuildNow(t, c1)
	res, err := c1.SaveCheckpoint(cat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.GCErr != nil {
		t.Fatalf("SaveCheckpoint = %+v, want generation 1 with clean GC", res)
	}
	if res.Removed < 1 {
		t.Fatalf("checkpoint removed %d segments; the %d batches were meant to span several (shrink ckSegBytes?)", res.Removed, N)
	}
	if after := len(walSegIndexes(t, walDir)); after != before-res.Removed {
		t.Fatalf("wal dir has %d segments, want %d - %d removed", after, before, res.Removed)
	}
	for i := N; i < N+M; i++ {
		if _, err := c1.Ingest(fmt.Sprintf("b-%d", i), batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := answersOf(t, sys1); got != want {
		t.Error("checkpointed run answers differ from the uncrashed reference")
	}
	w1.Close()

	// Restart: restore the newest snapshot (samples + delta + idempotency
	// window), find no interrupted GC to finish, and replay only the tail
	// past the checkpoint.
	sys2, rec := recoverNow(t, n, cat, walDir, cfg)
	ck := rec.Checkpoint
	if rec.Generation != 1 || rec.Source != "snapshot" {
		t.Fatalf("recovered generation %d from %q (checkpoint %v), want checkpointed generation 1 from the snapshot", rec.Generation, rec.Source, ck)
	}
	if ck.BaseRows != uint64(n) {
		t.Fatalf("checkpoint base rows = %d, want %d", ck.BaseRows, n)
	}
	if got := sys2.DB().NumRows(); got != n+(N+M)*40 {
		t.Fatalf("restored base+delta+tail has %d rows, want %d", got, n+(N+M)*40)
	}
	for _, idx := range walSegIndexes(t, walDir) {
		if idx < ck.Seg {
			t.Fatalf("segment %d survives below the checkpoint position %d", idx, ck.Seg)
		}
	}
	if rec.GCRemoved != 0 {
		t.Fatalf("startup GC removed %d segments, want nothing left to do", rec.GCRemoved)
	}
	c2, rs := rec.Coordinator, rec.Replay
	if rs.Batches != M || rs.Torn {
		t.Fatalf("replayed %d batches (torn=%v), want exactly the %d post-checkpoint batches", rs.Batches, rs.Torn, M)
	}
	if got := answersOf(t, sys2); got != want {
		t.Error("restarted answers differ from the uncrashed reference")
	}
	// The idempotency window survives the restart on both sides of the
	// checkpoint: a covered batch id comes from the snapshot, a replayed one
	// from the tail.
	if _, err := c2.Ingest("b-2", batches[2]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-ingesting a checkpoint-covered batch id: err = %v, want ErrDuplicate", err)
	}
	if _, err := c2.Ingest(fmt.Sprintf("b-%d", N+1), batches[N+1]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-ingesting a replayed batch id: err = %v, want ErrDuplicate", err)
	}
}

// TestCheckpointGCCrashMidwayRecovers: a failure partway through segment
// deletion must not fail the checkpoint (the snapshot is durable) and must
// leave a WAL that reopens cleanly; the next startup's GC finishes the job.
func TestCheckpointGCCrashMidwayRecovers(t *testing.T) {
	t.Cleanup(faults.Reset)
	const n = 3000
	cfg := Config{Online: core.OnlineConfig{Seed: 92}}
	walDir := t.TempDir()
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c1, w1 := newCheckpointSystem(t, n, walDir, cfg)
	rng := randx.New(78)
	for i := 0; i < 8; i++ {
		if _, err := c1.Ingest(fmt.Sprintf("b-%d", i), ingestRows(rng, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if segs := walSegIndexes(t, walDir); len(segs) < 3 {
		t.Fatalf("only %d segments; the test needs at least 2 removable ones", len(segs))
	}
	rebuildNow(t, c1)

	boom := errors.New("injected unlink failure")
	faults.SetErr(faults.PointWALGC, faults.FailNth(1, boom)) // first removal lands, second dies
	res, err := c1.SaveCheckpoint(cat)
	faults.Reset()
	if err != nil {
		t.Fatalf("SaveCheckpoint failed outright on a GC error: %v", err)
	}
	if res.Generation != 1 || res.Removed != 1 || !errors.Is(res.GCErr, boom) {
		t.Fatalf("SaveCheckpoint = gen %d removed %d gcErr %v, want gen 1, 1 removed, the injected failure", res.Generation, res.Removed, res.GCErr)
	}
	w1.Close()

	// The partial deletion removed the lowest segment first, so what's on
	// disk is a contiguous suffix: reopen must succeed and recovery's startup
	// GC must finish the interrupted deletion.
	_, rec := recoverNow(t, n, cat, walDir, cfg)
	if rec.GCRemoved < 1 {
		t.Fatalf("startup GC removed %d segments, want it to finish the interrupted deletion", rec.GCRemoved)
	}
	for _, idx := range walSegIndexes(t, walDir) {
		if idx < rec.Checkpoint.Seg {
			t.Fatalf("segment %d survives below checkpoint position %d after startup GC", idx, rec.Checkpoint.Seg)
		}
	}
}

// TestCheckpointVerifyFailureRetainsWAL: if the just-written snapshot does
// not read back and verify from disk, no WAL segment may be deleted — replay
// from the full log is the only copy of the data at that point.
func TestCheckpointVerifyFailureRetainsWAL(t *testing.T) {
	t.Cleanup(faults.Reset)
	const n = 3000
	walDir := t.TempDir()
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c1, _ := newCheckpointSystem(t, n, walDir, Config{Online: core.OnlineConfig{Seed: 93}})
	rng := randx.New(79)
	for i := 0; i < 6; i++ {
		if _, err := c1.Ingest(fmt.Sprintf("b-%d", i), ingestRows(rng, 40)); err != nil {
			t.Fatal(err)
		}
	}
	rebuildNow(t, c1)
	before := walSegIndexes(t, walDir)

	// Corrupt the snapshot as it lands: Save sees a clean
	// write, but the read-back verification must catch the damage.
	faults.SetData(faults.PointSnapshotChunk, func(i int, b []byte) {
		if i == 0 && len(b) > 0 {
			b[0] ^= 0x40
		}
	})
	res, err := c1.SaveCheckpoint(cat)
	faults.Reset()
	if err == nil {
		t.Fatal("SaveCheckpoint accepted a snapshot that does not verify on disk")
	}
	if res.Removed != 0 {
		t.Fatalf("deleted %d wal segments on the strength of an unverified snapshot", res.Removed)
	}
	after := walSegIndexes(t, walDir)
	if len(after) != len(before) {
		t.Fatalf("wal went from %v to %v despite the failed checkpoint", before, after)
	}
}

// TestCheckpointRefusedDuringRebuild: the cut must describe a paused,
// self-consistent instant; mid-rebuild the tail buffer makes that
// impossible.
func TestCheckpointRefusedDuringRebuild(t *testing.T) {
	const n = 2000
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := newCheckpointSystem(t, n, t.TempDir(), Config{Online: core.OnlineConfig{Seed: 94}})
	if _, _, err := c.beginRebuild(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveCheckpoint(cat); err == nil {
		t.Fatal("SaveCheckpoint succeeded during a rebuild")
	}
	c.abortRebuild()
}

// TestWALTornSegmentCreationRepaired: a crash between creating the next
// segment file and making its magic durable leaves a husk shorter than the
// header. Open must repair it in place (it cannot hold a record) and keep
// appending into it.
func TestWALTornSegmentCreationRepaired(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate the crash: the rotation's target exists with half a magic.
	husk := filepath.Join(dir, fmt.Sprintf("wal-%010d.seg", 1))
	if err := os.WriteFile(husk, []byte(segMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("open with a torn segment creation: %v", err)
	}
	if !w2.Torn() {
		t.Error("torn segment creation not reported as a torn tail")
	}
	if err := w2.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	payloads, torn := mustReplay(t, dir)
	if torn || len(payloads) != 2 || string(payloads[0]) != "one" || string(payloads[1]) != "two" {
		t.Fatalf("replay = %d records (torn=%v), want [one two] clean", len(payloads), torn)
	}
}

// TestWALProbeAppendsNoopAndReplaySkipsIt: the degraded-mode probe writes a
// no-op frame to prove the disk heals; replay must skip it without consuming
// a sequence number.
func TestWALProbeAppendsNoopAndReplaySkipsIt(t *testing.T) {
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected enospc")
	faults.SetErr(faults.PointWALSync, faults.FailNth(0, boom))
	if err := w.Append([]byte("lost")); !errors.Is(err, boom) {
		t.Fatalf("faulted append err = %v, want %v", err, boom)
	}
	faults.Reset()
	if err := w.Probe(); err != nil {
		t.Fatalf("probe after the fault cleared: %v", err)
	}
	if err := w.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	payloads, torn := mustReplay(t, dir)
	if torn || len(payloads) != 3 {
		t.Fatalf("replay = %d records (torn=%v), want 3 clean", len(payloads), torn)
	}
	if !IsNoop(payloads[1]) {
		t.Fatalf("middle record %q is not the probe's no-op frame", payloads[1])
	}
	if string(payloads[0]) != "payload" || string(payloads[2]) != "after" {
		t.Fatalf("payloads = %q", payloads)
	}
}

// TestDecodeSnapshotTruncated: every proper prefix of a checkpoint stream —
// header, idempotency entries, delta, samples — must fail to decode with an
// error, never panic or yield a snapshot.
func TestDecodeSnapshotTruncated(t *testing.T) {
	full, _ := snapshotStreams(t)
	s, err := DecodeSnapshot(bytes.NewReader(full))
	if err != nil || len(s.IDs) != 3 || s.IDs[2].ID != "b-2" || s.IDs[2].Stats.DataGeneration != 3 || s.Checkpoint.Off != 64 {
		t.Fatalf("round trip = %+v, %v", s, err)
	}
	for n := 0; n < len(full); n++ {
		if s, err := DecodeSnapshot(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("a %d-byte prefix of the %d-byte stream decoded: %+v", n, len(full), s)
		}
	}
}

// TestSnapshotStoreRoundTrip covers the one door a catalog payload comes back
// through, catalog.ReadSnapshot around DecodeSnapshot. Both payloads decode —
// the bare stream as the checkpoint that covers nothing over its family's
// base — and the container refuses a payload outside it, garbage, and any
// bit flip or truncation, including in table data the decoder would read.
func TestSnapshotStoreRoundTrip(t *testing.T) {
	ck, bare := snapshotStreams(t)
	for _, tc := range []struct {
		name    string
		payload []byte
		want    Checkpoint
		delta   bool
	}{
		{"checkpoint", ck, Checkpoint{DataGen: 3, BaseRows: 500, Seg: 1, Off: 64}, true},
		{"bare", bare, Checkpoint{BaseRows: 500}, false},
	} {
		s, err := readGeneration(wrapGeneration(t, tc.payload))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *s.Checkpoint != tc.want || (s.Delta != nil) != tc.delta || s.Prepared.SampleRows() == 0 {
			t.Errorf("%s: checkpoint %+v, delta %v, %d sample rows; want %+v", tc.name, *s.Checkpoint, s.Delta != nil, s.Prepared.SampleRows(), tc.want)
		}
	}
	for name, b := range map[string][]byte{"bare payload": bare, "garbage": []byte("GARBAGE!")} {
		if _, err := readGeneration(b); !errors.Is(err, catalog.ErrCorrupt) {
			t.Errorf("%s outside the container: err = %v, want catalog.ErrCorrupt", name, err)
		}
	}
	enc := wrapGeneration(t, ck)
	for _, off := range []int{10, len(enc) / 2, len(enc) - 10} {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x20
		if _, err := readGeneration(mut); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		}
	}
	for _, cut := range []int{0, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := readGeneration(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestRestoreDeltaInSlicesMatchesOneAppend: Restore re-appends the delta a
// slice at a time; the database it publishes must be, table by table and byte
// by byte, the one a single Append of the whole delta builds — with the delta
// spanning several slices and new dimension rows arriving in more than one.
func TestRestoreDeltaInSlicesMatchesOneAppend(t *testing.T) {
	const baseRows, deltaRows = 3000, 2*restoreSliceRows + 700
	starDB := func() *engine.Database {
		city, tier := engine.NewColumn("city", engine.String), engine.NewColumn("tier", engine.Int)
		dim := engine.NewTable("stores", city, tier)
		for i := 0; i < 20; i++ {
			dim.AppendRow(engine.StringVal(fmt.Sprintf("c%02d", i)), engine.IntVal(int64(i%3)))
		}
		kind, amount, fk := engine.NewColumn("kind", engine.String), engine.NewColumn("amount", engine.Float), engine.NewColumn("store_fk", engine.Int)
		fact := engine.NewTable("sales", kind, amount, fk)
		rng := randx.New(11)
		for i := 0; i < baseRows; i++ {
			fact.AppendRow(engine.StringVal(fmt.Sprintf("k%d", rng.Intn(6))), engine.FloatVal(rng.Float64()*100), engine.IntVal(int64(rng.Intn(20))))
		}
		return engine.MustNewDatabase("star", fact, engine.DimJoin{Table: dim, FK: "store_fk"})
	}
	db := starDB()
	delta := engine.NewTable("ingest-delta")
	for _, name := range db.Columns() {
		typ, _ := db.ColumnType(name)
		delta.AddColumn(engine.NewColumn(name, typ))
	}
	rng := randx.New(12)
	rows := make([][]engine.Value, deltaRows)
	newStores := map[int]bool{}
	for i := range rows {
		store := rng.Intn(20)
		if i%400 == 399 { // a store the dimension has not seen: one every 400 rows, so in every slice
			store = 100 + i
			newStores[i/restoreSliceRows] = true
		}
		row := make([]engine.Value, 0, 4)
		for _, name := range db.Columns() {
			switch name {
			case "kind":
				row = append(row, engine.StringVal(fmt.Sprintf("k%d", rng.Intn(9))))
			case "amount":
				row = append(row, engine.FloatVal(rng.Float64()*100))
			case "city":
				row = append(row, engine.StringVal(fmt.Sprintf("c%02d", store)))
			case "tier":
				row = append(row, engine.IntVal(int64(store%3)))
			}
		}
		rows[i] = row
		delta.AppendRow(row...)
	}
	if len(newStores) < 3 {
		t.Fatalf("fixture: new dimension rows in %d slices, want 3", len(newStores))
	}

	sys := core.NewSystem(db)
	if err := sys.AddStrategy(core.NewSmallGroup(ingestSGCfg)); err != nil {
		t.Fatal(err)
	}
	p, _ := sys.Prepared("smallgroup")
	snap := &Snapshot{Checkpoint: &Checkpoint{DataGen: 9, BaseRows: baseRows}, Prepared: p, Delta: delta}
	if err := snap.Restore(sys, "smallgroup"); err != nil {
		t.Fatal(err)
	}

	app, err := engine.NewAppender(starDB())
	if err != nil {
		t.Fatal(err)
	}
	want, err := app.Append(rows)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.DB()
	if got.NumRows() != baseRows+deltaRows || got.Dims[0].Table.NumRows() != want.Dims[0].Table.NumRows() {
		t.Fatalf("restored %d fact and %d dimension rows, want %d and %d",
			got.NumRows(), got.Dims[0].Table.NumRows(), baseRows+deltaRows, want.Dims[0].Table.NumRows())
	}
	for i, pair := range [][2]*engine.Table{{got.Fact, want.Fact}, {got.Dims[0].Table, want.Dims[0].Table}} {
		var g, w bytes.Buffer
		if err := engine.WriteBinary(pair[0], &g); err != nil {
			t.Fatal(err)
		}
		if err := engine.WriteBinary(pair[1], &w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Errorf("table %d: the sliced restore and the single append differ (%d vs %d bytes)", i, g.Len(), w.Len())
		}
	}
}
