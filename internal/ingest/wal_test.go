package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynsample/internal/faults"
)

func mustReplay(t *testing.T, dir string) (payloads [][]byte, torn bool) {
	t.Helper()
	_, _, _, torn, err := replay(dir, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads, torn
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("first"), []byte("second"), []byte("third record, longer")}
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := mustReplay(t, dir)
	if torn {
		t.Fatal("clean log reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWALRejectsOversizeRecord(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := w.Append(make([]byte, maxRecordSize+1)); err == nil {
		t.Error("oversize record accepted")
	}
}

// TestWALTornTailRecovery simulates a crash mid-append: a partial frame at
// the end of the final segment. replay must surface the durable records and
// flag the torn tail; reopening must truncate it so new appends are clean.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, segName(w.segIndex))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A frame header promising 100 bytes followed by only 10: the shape a
	// power cut leaves behind.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	f.Write(hdr[:])
	f.Write([]byte("only10byts"))
	f.Close()

	got, torn := mustReplay(t, dir)
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want the 3 durable ones", len(got))
	}

	// Reopen: the torn tail must be cut, reported, and further appends
	// replayable.
	before, _ := os.Stat(seg)
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !w2.Torn() {
		t.Error("OpenWAL did not report the truncated torn tail")
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	if err := w2.Append([]byte("batch-3")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	got, torn = mustReplay(t, dir)
	if torn || len(got) != 4 || string(got[3]) != "batch-3" {
		t.Fatalf("after recovery: %d records (torn=%v), want 4 clean", len(got), torn)
	}
	w3, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Torn() {
		t.Error("clean reopen reported a torn tail")
	}
	w3.Close()
}

// TestWALMidSegmentCorruptionWithLaterRecordsIsFatal: an invalid frame with
// intact records behind it — even in the final segment — is bit rot, not a
// torn tail: a crash cannot manufacture valid records past the point the log
// stopped. Truncating there would silently delete acknowledged batches, so
// both replay and OpenWAL must refuse with ErrCorrupt.
func TestWALMidSegmentCorruptionWithLaterRecordsIsFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, segName(w.segIndex))
	w.Close()

	// Flip one payload bit of the FIRST record, leaving two valid ones after.
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(segMagic)+8+2] ^= 0x04
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, _, _, err := replay(dir, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay error = %v, want ErrCorrupt for mid-segment corruption", err)
	}
	if _, err := OpenWAL(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open error = %v, want ErrCorrupt instead of truncating acknowledged records", err)
	}
}

// TestWALFailedAppendRollsBackFrame: an fsync failure happens after the frame
// bytes reached the file. Without a rollback a retried batch would append a
// second record with the same sequence number (ErrCorrupt at the next
// startup); the WAL must truncate the failed frame so the retry lands clean.
func TestWALFailedAppendRollsBackFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	faults.SetErr(faults.PointWALSync, faults.FailNth(0, boom))
	t.Cleanup(faults.Reset)
	for i := 0; i < 2; i++ {
		if err := w.Append([]byte("doomed")); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want injected fsync failure", i, err)
		}
	}
	faults.Reset()
	if err := w.Append([]byte("retried")); err != nil {
		t.Fatalf("append after repaired failure: %v", err)
	}
	w.Close()
	got, torn := mustReplay(t, dir)
	if torn {
		t.Error("failed appends left a torn frame behind")
	}
	if len(got) != 2 || string(got[0]) != "durable" || string(got[1]) != "retried" {
		t.Fatalf("replayed %d records %q, want the durable and retried ones only", len(got), got)
	}
}

// TestWALFlippedBitDetected plants one flipped bit in a record on its way
// to disk; the checksum must reject it on replay.
func TestWALFlippedBitDetected(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("good record")); err != nil {
		t.Fatal(err)
	}
	faults.SetData(faults.PointWALRecord, faults.FlipBit(0, 12))
	t.Cleanup(faults.Reset)
	if err := w.Append([]byte("silently corrupted")); err != nil {
		t.Fatal(err)
	}
	faults.Reset()
	w.Close()
	got, torn := mustReplay(t, dir)
	if !torn {
		t.Fatal("corrupt record not detected")
	}
	if len(got) != 1 || string(got[0]) != "good record" {
		t.Fatalf("replay returned %d records, want just the intact one", len(got))
	}
}

// TestWALSyncFailureNotAcknowledged injects an fsync failure: Append must
// return the error, so the coordinator never acknowledges the batch.
func TestWALSyncFailureNotAcknowledged(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	boom := errors.New("disk on fire")
	faults.SetErr(faults.PointWALSync, faults.FailNth(0, boom))
	t.Cleanup(faults.Reset)
	if err := w.Append([]byte("doomed")); !errors.Is(err, boom) {
		t.Fatalf("append error = %v, want injected fsync failure", err)
	}
}

// TestWALCorruptionInEarlierSegmentIsFatal: a bad record is only tolerable
// as the torn tail of the final segment; anywhere earlier it means an
// acknowledged batch is gone, and replay must refuse rather than silently
// skip it.
func TestWALCorruptionInEarlierSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.maxBytes = 1 // force rotation after every record
	if err := w.Append([]byte("in segment zero")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("in segment one")); err != nil {
		t.Fatal(err)
	}
	if w.segIndex < 1 {
		t.Fatal("rotation did not happen")
	}
	w.Close()

	// Flip one payload byte in segment 0.
	seg0 := filepath.Join(dir, segName(0))
	b, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	b[len(segMagic)+8+3] ^= 0x40
	if err := os.WriteFile(seg0, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := replay(dir, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay error = %v, want ErrCorrupt", err)
	}
}

// TestWALSegmentGapIsFatal: a missing middle segment is data loss.
func TestWALSegmentGapIsFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.maxBytes = 1 // force rotation after every record
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if err := os.Remove(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := replay(dir, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay error = %v, want ErrCorrupt for a segment gap", err)
	}
}

// TestWALRotationReplaysAcrossSegments writes enough records to rotate and
// checks replay order spans segments seamlessly.
func TestWALRotationReplaysAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.maxBytes = 128
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if w.segIndex == 0 {
		t.Fatal("expected at least one rotation")
	}
	w.Close()
	got, torn := mustReplay(t, dir)
	if torn || len(got) != n {
		t.Fatalf("replayed %d records (torn=%v), want %d clean", len(got), torn, n)
	}
	for i, p := range got {
		if want := fmt.Sprintf("record-%02d", i); string(p) != want {
			t.Fatalf("record %d = %q, want %q (order must span segments)", i, p, want)
		}
	}
}
