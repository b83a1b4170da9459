package crashsim

import (
	"errors"
	"strings"
	"testing"

	"dynsample/internal/faults"
	"dynsample/internal/ingest"
)

// The scenarios share the global fault registry and real temp-dir state, so
// none of them may run in parallel; each resets the registry on the way out.

// reference runs the given uncrashed sequence on a fresh harness and
// returns its bit-exact answers. Same seeds + same batch numbers = the
// answers any crashed-and-recovered run must converge to.
func reference(t *testing.T, run func(h *Harness)) string {
	t.Helper()
	h := New(t)
	h.Start()
	run(h)
	return h.Answers()
}

// TestCrashBetweenWALAppendAndApply injects a failure at the hook between
// the WAL append (durable, fsynced) and the in-memory apply: the batch is
// on disk but not in memory, so the coordinator must poison itself with a
// diagnosable error, and a restart must apply the logged batch exactly once
// and remember its id for client retries.
func TestCrashBetweenWALAppendAndApply(t *testing.T) {
	t.Cleanup(faults.Reset)
	want := reference(t, func(h *Harness) { h.MustIngest(0, 3) })

	h := New(t)
	h.Start()
	h.MustIngest(0, 2)
	boom := errors.New("injected apply failure")
	faults.SetErr(faults.PointIngestApply, func(int) error { return boom })
	err := h.Ingest(3)
	if !errors.Is(err, boom) || !errors.Is(err, ingest.ErrUnavailable) {
		t.Fatalf("faulted ingest err = %v, want the injected failure wrapped in ErrUnavailable", err)
	}
	faults.Reset()

	// The poisoned refusal must name the stuck batch and say how to fix it.
	err = h.Ingest(4)
	var pe *ingest.PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("ingest while poisoned: err = %v, want a PoisonedError", err)
	}
	if pe.Seq == 0 || pe.BatchID != BatchID(3) || !errors.Is(pe.Cause, boom) {
		t.Fatalf("PoisonedError = seq %d id %q cause %v, want the stuck batch's identity", pe.Seq, pe.BatchID, pe.Cause)
	}
	if msg := err.Error(); !strings.Contains(msg, "restart") {
		t.Fatalf("poisoned error gives no remediation hint: %q", msg)
	}

	h.Crash()
	rs := h.Start()
	if rs.Batches != 4 {
		t.Fatalf("replayed %d batches, want 4 (the divergent batch is durable)", rs.Batches)
	}
	h.CheckAcked()
	if got := h.Applications(3); got != 1 {
		t.Fatalf("divergent batch applied %d times after restart, want exactly once", got)
	}
	// The client's retry of the never-acknowledged batch dedupes instead of
	// double-applying.
	if err := h.Ingest(3); !errors.Is(err, ingest.ErrDuplicate) {
		t.Fatalf("retry of the divergent batch: err = %v, want ErrDuplicate", err)
	}
	if got := h.Answers(); got != want {
		t.Error("recovered answers differ from the uncrashed reference")
	}
}

// TestCrashBetweenSnapshotSaveAndManifestWrite kills the manifest update
// after the checkpoint snapshot committed: the manifest is advisory, so the
// restarted process must recover the new generation by scanning the
// directory, and the next successful checkpoint must heal the manifest.
func TestCrashBetweenSnapshotSaveAndManifestWrite(t *testing.T) {
	t.Cleanup(faults.Reset)
	want := reference(t, func(h *Harness) {
		h.MustIngest(0, 5)
		h.Rebuild()
	})

	h := New(t)
	h.Start()
	h.MustIngest(0, 5)
	h.Rebuild()
	boom := errors.New("injected manifest write failure")
	faults.SetErr(faults.PointManifestWrite, faults.FailNth(0, boom))
	res, err := h.Checkpoint()
	faults.Reset()
	// Generation 1 is the first Start's save of its from-scratch build.
	if res.Generation != 2 || !errors.Is(err, boom) {
		t.Fatalf("Checkpoint = (gen %d, %v), want generation 2 plus the manifest failure", res.Generation, err)
	}

	h.Crash()
	rs := h.Start()
	if rs.Batches != 0 {
		t.Fatalf("replayed %d batches, want 0 (the checkpoint whose manifest update was lost covers them all)", rs.Batches)
	}
	h.CheckAcked()
	if got := h.Answers(); got != want {
		t.Error("recovered answers differ from the uncrashed reference")
	}
	// Self-heal: the next checkpoint writes a manifest naming all three
	// generations.
	h.Rebuild()
	res, err = h.Checkpoint()
	if err != nil || res.Generation != 3 {
		t.Fatalf("second checkpoint = (gen %d, %v)", res.Generation, err)
	}
	m, err := h.Catalog().ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Current != 3 || len(m.Generations) != 3 {
		t.Fatalf("self-healed manifest = current %d with %d generations, want 3 and 3", m.Current, len(m.Generations))
	}
}

// TestCrashBetweenCheckpointAndSegmentGC commits the checkpoint but fails
// every segment deletion: the checkpoint itself must succeed (the snapshot
// is durable; leftover segments only cost disk), and the next startup's GC
// must finish the deletion.
func TestCrashBetweenCheckpointAndSegmentGC(t *testing.T) {
	t.Cleanup(faults.Reset)
	h := New(t)
	h.Start()
	h.MustIngest(0, 7)
	h.Rebuild()
	boom := errors.New("injected unlink failure")
	faults.SetErr(faults.PointWALGC, func(int) error { return boom })
	res, err := h.Checkpoint()
	faults.Reset()
	if err != nil {
		t.Fatalf("checkpoint failed outright on a GC fault: %v", err)
	}
	if res.Generation != 2 || res.Removed != 0 || !errors.Is(res.GCErr, boom) {
		t.Fatalf("Checkpoint = gen %d removed %d gcErr %v, want gen 2, nothing removed, the injected failure", res.Generation, res.Removed, res.GCErr)
	}
	before := h.WALSegments()
	if len(before) < 2 {
		t.Fatalf("only %d segments; nothing for the next startup to clean", len(before))
	}

	h.Crash()
	rs := h.Start() // Start fails the test if startup GC errors
	if rs.Batches != 0 {
		t.Fatalf("replayed %d batches, want 0 covered by the checkpoint", rs.Batches)
	}
	h.CheckAcked()
	if after := h.WALSegments(); len(after) >= len(before) {
		t.Fatalf("startup GC removed nothing: %v -> %v", before, after)
	}
}

// TestCrashMidSegmentGC dies after deleting only the first of several
// covered segments: deletion is oldest-first, so what's left is a
// contiguous suffix that must reopen cleanly, and the next startup finishes
// the job.
func TestCrashMidSegmentGC(t *testing.T) {
	t.Cleanup(faults.Reset)
	h := New(t)
	h.Start()
	h.MustIngest(0, 7)
	h.Rebuild()
	boom := errors.New("injected unlink failure")
	faults.SetErr(faults.PointWALGC, faults.FailNth(1, boom))
	res, err := h.Checkpoint()
	faults.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || !errors.Is(res.GCErr, boom) {
		t.Fatalf("Checkpoint = removed %d gcErr %v, want exactly 1 removed then the injected failure", res.Removed, res.GCErr)
	}
	before := h.WALSegments()

	h.Crash()
	rs := h.Start()
	if rs.Batches != 0 {
		t.Fatalf("replayed %d batches, want 0", rs.Batches)
	}
	h.CheckAcked()
	if after := h.WALSegments(); len(after) >= len(before) {
		t.Fatalf("startup GC removed nothing after the partial deletion: %v -> %v", before, after)
	}
}

// TestCrashMidSnapshotSave dies partway through writing the checkpoint
// snapshot itself: no generation commits, no WAL segment may be deleted,
// and the restarted process falls back to generation 1 (the first Start's
// save of its from-scratch build, which covers nothing) plus a full,
// idempotent replay.
func TestCrashMidSnapshotSave(t *testing.T) {
	t.Cleanup(faults.Reset)
	// The crashed run's rebuild dies with the process (its snapshot never
	// committed), so the comparable uncrashed run is ingest-only.
	want := reference(t, func(h *Harness) { h.MustIngest(0, 5) })

	h := New(t)
	h.Start()
	h.MustIngest(0, 5)
	h.Rebuild()
	segsBefore := h.WALSegments()
	boom := errors.New("injected short write")
	faults.SetErr(faults.PointSnapshotWrite, faults.FailNth(0, boom))
	res, err := h.Checkpoint()
	faults.Reset()
	if !errors.Is(err, boom) || res.Generation != 0 {
		t.Fatalf("Checkpoint = (gen %d, %v), want no generation and the injected failure", res.Generation, err)
	}
	if res.Removed != 0 {
		t.Fatalf("deleted %d segments though the snapshot never committed", res.Removed)
	}
	if got := h.WALSegments(); len(got) != len(segsBefore) {
		t.Fatalf("wal went from %v to %v despite the failed save", segsBefore, got)
	}

	h.Crash()
	rs := h.Start()
	if rs.Batches != 6 {
		t.Fatalf("replayed %d batches, want the full log (6)", rs.Batches)
	}
	h.CheckAcked()
	if got := h.Answers(); got != want {
		t.Error("recovered answers differ from the uncrashed reference")
	}
}

// TestDiskFaultDegradedMode is the ENOSPC scenario end to end: a persistent
// WAL fsync failure flips the coordinator into degraded read-only mode
// (queries keep serving, ingest refuses with ErrDegraded, nothing is
// acknowledged and lost), and once the fault clears a probe restores ingest
// without a restart. The eventual restart replays only real batches — the
// probe's no-op frame is skipped.
func TestDiskFaultDegradedMode(t *testing.T) {
	t.Cleanup(faults.Reset)
	want := reference(t, func(h *Harness) { h.MustIngest(0, 3) })

	h := New(t)
	h.Start()
	h.MustIngest(0, 2)
	boom := errors.New("injected enospc")
	faults.SetErr(faults.PointWALSync, func(int) error { return boom })
	if err := h.Ingest(3); !errors.Is(err, ingest.ErrDegraded) || !errors.Is(err, boom) {
		t.Fatalf("ingest on a failing disk: err = %v, want the injected failure wrapped in ErrDegraded", err)
	}
	if state, _ := h.Coordinator().State(); state != "degraded" {
		t.Fatalf("coordinator state = %q, want degraded", state)
	}
	// Read-only survival: queries answer while ingest is down.
	if h.Answers() == "" {
		t.Fatal("no query answers while degraded")
	}
	if err := h.Ingest(4); !errors.Is(err, ingest.ErrDegraded) {
		t.Fatalf("second ingest: err = %v, want a fast-fail ErrDegraded", err)
	}
	// Self-recovery once the disk heals, no restart involved.
	faults.Reset()
	if err := h.Coordinator().ProbeNow(); err != nil {
		t.Fatalf("probe after the fault cleared: %v", err)
	}
	if state, _ := h.Coordinator().State(); state != "ok" {
		t.Fatalf("coordinator state = %q after recovery, want ok", state)
	}
	if err := h.Ingest(3); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	h.CheckAcked()
	if got := h.Answers(); got != want {
		t.Error("answers after in-place recovery differ from the fault-free reference")
	}

	// Restart: the failed attempts left no torn frames and the probe's
	// no-op frame consumes no sequence number.
	h.Crash()
	rs := h.Start()
	if rs.Batches != 4 || rs.Torn {
		t.Fatalf("replayed %d batches (torn=%v), want 4 clean", rs.Batches, rs.Torn)
	}
	if rs.Noops < 1 {
		t.Fatalf("replay saw %d no-op frames, want the probe's", rs.Noops)
	}
	h.CheckAcked()
	if got := h.Answers(); got != want {
		t.Error("answers after restart differ from the fault-free reference")
	}
}

// TestBoundedRecovery is the checkpoint acceptance scenario: ingest N
// batches, rebuild + checkpoint, ingest M more, kill the process — the
// restart must replay only the M post-checkpoint batches, the
// pre-checkpoint segments must be gone from disk, and the answers must
// match a process that never crashed.
func TestBoundedRecovery(t *testing.T) {
	t.Cleanup(faults.Reset)
	const N, M = 6, 3
	want := reference(t, func(h *Harness) {
		h.MustIngest(0, N-1)
		h.Rebuild()
		h.MustIngest(N, N+M-1)
	})

	h := New(t)
	h.Start()
	h.MustIngest(0, N-1)
	h.Rebuild()
	res, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.Removed < 1 || res.GCErr != nil {
		t.Fatalf("Checkpoint = %+v, want generation 2 with at least one segment deleted", res)
	}
	segsAfterCk := h.WALSegments()
	h.MustIngest(N, N+M-1)

	h.Crash()
	rs := h.Start()
	if rs.Batches != M {
		t.Fatalf("replayed %d batches, want exactly the %d past the checkpoint", rs.Batches, M)
	}
	h.CheckAcked()
	// Bounded disk: recovery reads only what survived the checkpoint GC
	// (plus whatever the tail appended), never the deleted prefix.
	if min := segsAfterCk[0]; h.WALSegments()[0] < min {
		t.Fatalf("a pre-checkpoint segment reappeared below %d: %v", min, h.WALSegments())
	}
	if got := h.Answers(); got != want {
		t.Error("recovered answers differ from the uncrashed reference")
	}
	// Idempotency spans the checkpoint boundary after restart.
	if err := h.Ingest(1); !errors.Is(err, ingest.ErrDuplicate) {
		t.Fatalf("retry of a checkpoint-covered batch: err = %v, want ErrDuplicate", err)
	}
	if err := h.Ingest(N + 1); !errors.Is(err, ingest.ErrDuplicate) {
		t.Fatalf("retry of a replayed batch: err = %v, want ErrDuplicate", err)
	}
}

// TestTornSegmentCreation crashes between creating the rotation's next
// segment file and making its header durable, then restarts: the husk must
// be repaired in place and ingest must continue into it.
func TestTornSegmentCreation(t *testing.T) {
	t.Cleanup(faults.Reset)
	h := New(t)
	h.Start()
	h.MustIngest(0, 2)
	h.Crash()

	// Simulate the torn creation: the next segment exists with a partial
	// header. (The WAL names segments contiguously, so the husk index is
	// one past the current top.)
	segs := h.WALSegments()
	top := segs[len(segs)-1]
	h.WriteTornSegmentCreation(top + 1)

	rs := h.Start()
	if rs.Batches != 3 {
		t.Fatalf("replayed %d batches, want 3", rs.Batches)
	}
	h.MustIngest(3, 3)
	h.CheckAcked()
}
