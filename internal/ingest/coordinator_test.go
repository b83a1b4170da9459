package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
	"dynsample/internal/randx"
)

// ingestDB builds a deterministic skewed single-table database: column a is
// 80% "A0", 15% "A1", 5% tail; b is uniform; m is a measure.
func ingestDB(t testing.TB, n int) *engine.Database {
	t.Helper()
	a := engine.NewColumn("a", engine.String)
	b := engine.NewColumn("b", engine.String)
	m := engine.NewColumn("m", engine.Int)
	fact := engine.NewTable("fact", a, b, m)
	rng := randx.New(4242)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.80:
			a.AppendString("A0")
		case r < 0.95:
			a.AppendString("A1")
		default:
			a.AppendString("A" + string(rune('2'+rng.Intn(8))))
		}
		b.AppendString("B" + string(rune('0'+rng.Intn(4))))
		m.AppendInt(int64(i%31) + 1)
		fact.EndRow()
	}
	db, err := engine.NewDatabase("ingesttest", fact)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func ingestRows(rng *rand.Rand, count int) [][]engine.Value {
	rows := make([][]engine.Value, count)
	for i := range rows {
		var a string
		switch r := rng.Float64(); {
		case r < 0.78:
			a = "A0"
		case r < 0.93:
			a = "A1"
		default:
			a = "A" + string(rune('2'+rng.Intn(8)))
		}
		rows[i] = []engine.Value{
			engine.StringVal(a),
			engine.StringVal("B" + string(rune('0'+rng.Intn(4)))),
			engine.IntVal(int64(rng.Intn(31)) + 1),
		}
	}
	return rows
}

var ingestSGCfg = core.SmallGroupConfig{
	BaseRate: 0.05, SmallGroupFraction: 0.05, DistinctLimit: 100, Seed: 17,
}

// newIngestSystem builds base data, preprocesses it, and attaches a
// coordinator over a WAL in dir.
func newIngestSystem(t testing.TB, n int, dir string, cfg Config) (*core.System, *Coordinator, *WAL) {
	t.Helper()
	sys := core.NewSystem(ingestDB(t, n))
	if err := sys.AddStrategy(core.NewSmallGroup(ingestSGCfg)); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir)
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

// answersOf snapshots the approximate answer for a grouped query in a
// deterministic comparable form: every float is rendered bit-exactly.
func answersOf(t testing.TB, sys *core.System) string {
	t.Helper()
	q := &engine.Query{
		GroupBy: []string{"a", "b"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}},
	}
	ans, err := sys.Approx("smallgroup", q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, key := range ans.Result.Keys() {
		g := ans.Result.Group(key)
		fmt.Fprintf(&buf, "%v exact=%v", g.Key, g.Exact)
		for i, v := range g.Vals {
			iv := ans.Interval(key, i)
			fmt.Fprintf(&buf, " %016x[%016x,%016x]",
				math.Float64bits(v), math.Float64bits(iv.Lo), math.Float64bits(iv.Hi))
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

// TestCoordinatorCrashRecoveryBitIdentical is the crash-recovery acceptance
// test: ingest batches, tear the last WAL write mid-record, restart onto a
// regenerated base, and require (a) every durable batch replayed, (b) the
// torn tail rejected, and (c) answers bit-identical to a process that never
// crashed.
func TestCoordinatorCrashRecoveryBitIdentical(t *testing.T) {
	const n = 4000
	cfg := Config{Online: core.OnlineConfig{Seed: 33}}
	mkBatches := func() [][][]engine.Value {
		rng := randx.New(777)
		out := make([][][]engine.Value, 4)
		for i := range out {
			out[i] = ingestRows(rng, 200)
		}
		return out
	}

	// Reference: a run that never crashes.
	dirRef := t.TempDir()
	sysRef, cRef, _ := newIngestSystem(t, n, dirRef, cfg)
	for i, rows := range mkBatches() {
		if _, err := cRef.Ingest(fmt.Sprintf("ref-%d", i), rows); err != nil {
			t.Fatal(err)
		}
	}
	want := answersOf(t, sysRef)

	// Crashing run: same batches, then a torn record at the WAL tail.
	dir := t.TempDir()
	_, c1, w1 := newIngestSystem(t, n, dir, cfg)
	for i, rows := range mkBatches() {
		if _, err := c1.Ingest(fmt.Sprintf("batch-%d", i), rows); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, segName(w1.segIndex))
	w1.Close()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 5000)
	f.Write(hdr[:])
	f.Write([]byte("partial batch that never fsynced fu"))
	f.Close()

	// Restart: regenerated base + fresh preprocess + WAL replay.
	sys2, c2, _ := newIngestSystem(t, n, dir, cfg)
	rs, err := c2.ReplayWAL()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Batches != 4 {
		t.Fatalf("replayed %d batches, want 4 durable ones (torn tail rejected)", rs.Batches)
	}
	if g := c2.Generation(); g != 4 {
		t.Fatalf("generation after replay = %d, want 4", g)
	}
	if got := answersOf(t, sys2); got != want {
		t.Error("answers after crash recovery differ from the never-crashed run")
	}
	// A client retry of a pre-crash batch must be recognised across the
	// restart.
	if _, err := c2.Ingest("batch-2", mkBatches()[2]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("pre-crash batch id retried after restart: err = %v, want ErrDuplicate", err)
	}
}

// TestCoordinatorSnapshotRestoreReplay restarts from a mid-stream sample
// snapshot: covered batches must replay base-only, later ones in full, and
// answers must match the uninterrupted run bit-for-bit.
func TestCoordinatorSnapshotRestoreReplay(t *testing.T) {
	const n = 4000
	cfg := Config{Online: core.OnlineConfig{Seed: 91}}
	mkBatches := func() [][][]engine.Value {
		rng := randx.New(555)
		out := make([][][]engine.Value, 4)
		for i := range out {
			out[i] = ingestRows(rng, 150)
		}
		return out
	}

	dir := t.TempDir()
	sys1, c1, w1 := newIngestSystem(t, n, dir, cfg)
	batches := mkBatches()
	for i := 0; i < 2; i++ {
		if _, err := c1.Ingest("", batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the maintained samples at generation 2 (what aqpd persists).
	var snap bytes.Buffer
	p, _ := sys1.Prepared("smallgroup")
	if err := core.SaveSmallGroup(&snap, p); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := c1.Ingest("", batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := answersOf(t, sys1)
	w1.Close()

	// Restart path: regenerated base + restored snapshot + full WAL replay.
	sys2 := core.NewSystem(ingestDB(t, n))
	restored, err := core.LoadSmallGroup(&snap)
	if err != nil {
		t.Fatal(err)
	}
	sys2.AddPrepared("smallgroup", restored)
	if g := restored.DataGeneration(); g != 2 {
		t.Fatalf("snapshot generation = %d, want 2", g)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	c2, err := New(sys2, w2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c2.ReplayWAL()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Torn || rs.Batches != 4 {
		t.Fatalf("replayed %d batches (torn=%v), want 4", rs.Batches, rs.Torn)
	}
	if got := answersOf(t, sys2); got != want {
		t.Error("answers after snapshot restore + replay differ from uninterrupted run")
	}
}

func TestCoordinatorIdempotency(t *testing.T) {
	sys, c, _ := newIngestSystem(t, 2000, t.TempDir(), Config{Online: core.OnlineConfig{Seed: 5}})
	rows := ingestRows(randx.New(1), 50)
	st1, err := c.Ingest("dup-1", rows)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Ingest("dup-1", rows)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second ingest err = %v, want ErrDuplicate", err)
	}
	if st2 != st1 {
		t.Fatalf("duplicate returned %+v, want original stats %+v", st2, st1)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("generation = %d after duplicate, want 1", g)
	}
	if got := sys.DB().NumRows(); got != 2050 {
		t.Fatalf("base rows = %d, want 2050 (no double append)", got)
	}
}

func TestCoordinatorIdempotencyWindowEvicts(t *testing.T) {
	_, c, _ := newIngestSystem(t, 2000, t.TempDir(), Config{Online: core.OnlineConfig{Seed: 6}})
	rng := randx.New(2)
	if _, err := c.Ingest("id-0", ingestRows(rng, 10)); err != nil {
		t.Fatal(err)
	}
	// A window's worth of later ids, remembered as Ingest remembers them.
	last := fmt.Sprintf("id-%d", idempotencyWindow)
	c.mu.Lock()
	for i := 1; i <= idempotencyWindow; i++ {
		c.remember(fmt.Sprintf("id-%d", i), core.BatchStats{})
	}
	c.mu.Unlock()
	// id-0 was evicted by the last of them; replaying it appends again
	// (at-least-once beyond the window), while the last is still
	// deduplicated.
	if _, err := c.Ingest("id-0", ingestRows(rng, 10)); err != nil {
		t.Fatalf("evicted id rejected: %v", err)
	}
	if _, err := c.Ingest(last, ingestRows(rng, 10)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("recent id not deduplicated: %v", err)
	}
}

func TestCoordinatorInvalidBatchNotLogged(t *testing.T) {
	dir := t.TempDir()
	_, c, _ := newIngestSystem(t, 2000, dir, Config{Online: core.OnlineConfig{Seed: 7}})
	// Wrong arity and wrong type must both fail before touching the WAL.
	if _, err := c.Ingest("", [][]engine.Value{{engine.StringVal("A0")}}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := c.Ingest("", [][]engine.Value{{engine.IntVal(1), engine.StringVal("B0"), engine.IntVal(2)}}); err == nil {
		t.Fatal("mistyped row accepted")
	}
	if _, err := c.Ingest("", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	got, _ := mustReplay(t, dir)
	if len(got) != 0 {
		t.Fatalf("invalid batches reached the WAL: %d records", len(got))
	}
	if g := c.Generation(); g != 0 {
		t.Fatalf("generation advanced to %d on invalid input", g)
	}
}

// TestCoordinatorBackpressure holds the WAL fsync hostage so a first ingest
// occupies the pipeline, then checks an excess request fails fast with
// ErrOverloaded instead of queueing.
func TestCoordinatorBackpressure(t *testing.T) {
	_, c, _ := newIngestSystem(t, 2000, t.TempDir(),
		Config{Online: core.OnlineConfig{Seed: 8}, MaxPending: 1})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	faults.SetErr(faults.PointWALSync, func(int) error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	})
	t.Cleanup(faults.Reset)

	rng := randx.New(3)
	done := make(chan error, 1)
	go func() {
		_, err := c.Ingest("slow", ingestRows(rng, 10))
		done <- err
	}()
	<-entered
	if _, err := c.Ingest("rejected", ingestRows(randx.New(4), 10)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("excess ingest err = %v, want ErrOverloaded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("slow ingest failed: %v", err)
	}
	// Pipeline free again: the rejected id was never recorded, retry works.
	if _, err := c.Ingest("rejected", ingestRows(randx.New(4), 10)); err != nil {
		t.Fatalf("retry after overload failed: %v", err)
	}
}

// TestCoordinatorWALFailureNotApplied injects an fsync failure and checks
// the batch is neither acknowledged nor applied — the coordinator latches
// degraded read-only mode, and a probe after the fault clears brings ingest
// back without a restart.
func TestCoordinatorWALFailureNotApplied(t *testing.T) {
	sys, c, _ := newIngestSystem(t, 2000, t.TempDir(),
		Config{Online: core.OnlineConfig{Seed: 9}, ProbeBackoff: time.Hour})
	boom := errors.New("injected fsync failure")
	faults.SetErr(faults.PointWALSync, faults.FailNth(0, boom))
	t.Cleanup(faults.Reset)
	if _, err := c.Ingest("x", ingestRows(randx.New(5), 10)); !errors.Is(err, boom) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want injected failure wrapped in ErrDegraded", err)
	}
	if g := c.Generation(); g != 0 {
		t.Fatalf("generation = %d after failed append, want 0", g)
	}
	if got := sys.DB().NumRows(); got != 2000 {
		t.Fatalf("base grew to %d rows on a failed append", got)
	}
	// Degraded mode fast-fails further ingest without touching the disk.
	if _, err := c.Ingest("x", ingestRows(randx.New(5), 10)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest while degraded: err = %v, want ErrDegraded", err)
	}
	faults.Reset()
	if err := c.ProbeNow(); err != nil {
		t.Fatalf("probe after the fault cleared: %v", err)
	}
	if state, detail := c.State(); state != "ok" {
		t.Fatalf("still %s after a successful probe: %s", state, detail)
	}
	if _, err := c.Ingest("x", ingestRows(randx.New(5), 10)); err != nil {
		t.Fatalf("ingest after recovered fault: %v", err)
	}
}

// TestCoordinatorDegradedSelfHeals: with no ProbeNow call, the background
// probe schedule the fault started clears degraded mode once the disk
// heals, and ingest resumes without a restart.
func TestCoordinatorDegradedSelfHeals(t *testing.T) {
	_, c, _ := newIngestSystem(t, 2000, t.TempDir(),
		Config{Online: core.OnlineConfig{Seed: 9}, ProbeBackoff: 2 * time.Millisecond})
	t.Cleanup(c.Close)
	var healed atomic.Bool
	boom := errors.New("injected fsync failure")
	faults.SetErr(faults.PointWALSync, func(int) error {
		if healed.Load() {
			return nil
		}
		return boom
	})
	t.Cleanup(faults.Reset)
	if _, err := c.Ingest("x", ingestRows(randx.New(5), 10)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	healed.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		state, detail := c.State()
		if state == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still %s 5s after the disk healed: %s", state, detail)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Ingest("x", ingestRows(randx.New(5), 10)); err != nil {
		t.Fatalf("ingest after the probe schedule healed: %v", err)
	}
}

// TestCoordinatorSyncFailureSurvivesRestart: a transient fsync failure midway
// through the stream must leave no trace in the log — not a torn frame that
// would silently swallow later acknowledged batches on replay, and not a
// duplicate sequence number that would make the next startup refuse with
// ErrCorrupt. The retried batch and a restart must both land bit-identically
// with a run that never saw the fault.
func TestCoordinatorSyncFailureSurvivesRestart(t *testing.T) {
	const n = 2000
	cfg := Config{Online: core.OnlineConfig{Seed: 41}, ProbeBackoff: time.Hour}
	mkBatches := func() [][][]engine.Value {
		rng := randx.New(999)
		out := make([][][]engine.Value, 2)
		for i := range out {
			out[i] = ingestRows(rng, 100)
		}
		return out
	}

	// Reference: both batches ingested with no faults.
	sysRef, cRef, _ := newIngestSystem(t, n, t.TempDir(), cfg)
	for i, rows := range mkBatches() {
		if _, err := cRef.Ingest(fmt.Sprintf("b-%d", i), rows); err != nil {
			t.Fatal(err)
		}
	}
	want := answersOf(t, sysRef)

	dir := t.TempDir()
	sys1, c1, w1 := newIngestSystem(t, n, dir, cfg)
	batches := mkBatches()
	if _, err := c1.Ingest("b-0", batches[0]); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transient enospc")
	faults.SetErr(faults.PointWALSync, func(int) error { return boom })
	t.Cleanup(faults.Reset)
	// First attempt hits the disk and latches degraded mode; the second
	// fast-fails without touching the WAL. Both wrap ErrUnavailable (via
	// ErrDegraded) so existing callers keep matching.
	if _, err := c1.Ingest("b-1", batches[1]); !errors.Is(err, boom) || !errors.Is(err, ErrUnavailable) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("first attempt: err = %v, want the injected failure wrapped in ErrDegraded", err)
	}
	if _, err := c1.Ingest("b-1", batches[1]); !errors.Is(err, ErrDegraded) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("second attempt: err = %v, want fast-fail ErrDegraded", err)
	}
	faults.Reset()
	if err := c1.ProbeNow(); err != nil {
		t.Fatalf("probe after the fault cleared: %v", err)
	}
	if _, err := c1.Ingest("b-1", batches[1]); err != nil {
		t.Fatalf("retry after the fault cleared: %v", err)
	}
	if got := answersOf(t, sys1); got != want {
		t.Error("answers after recovered sync failures differ from the fault-free run")
	}
	w1.Close()

	// Restart: the log must replay cleanly with exactly the two acknowledged
	// batches — the failed attempts left neither torn frames nor duplicates,
	// and the recovery probe's no-op frame is skipped without a sequence.
	sys2, c2, _ := newIngestSystem(t, n, dir, cfg)
	rs, err := c2.ReplayWAL()
	if err != nil {
		t.Fatalf("replay after failed appends: %v", err)
	}
	if rs.Torn || rs.Batches != 2 {
		t.Fatalf("replayed %d batches (torn=%v), want 2 clean", rs.Batches, rs.Torn)
	}
	if got := answersOf(t, sys2); got != want {
		t.Error("answers after restart differ from the fault-free run")
	}
}

// TestCoordinatorPoisonedRefusesIngest: once a batch is durable in the WAL
// but missing from memory, accepting another batch would reuse its sequence
// number and corrupt the log — every subsequent ingest must refuse with
// ErrUnavailable until a restart replays the divergence away. Duplicate
// detection for batches applied before the failure keeps answering.
func TestCoordinatorPoisonedRefusesIngest(t *testing.T) {
	_, c, _ := newIngestSystem(t, 2000, t.TempDir(), Config{Online: core.OnlineConfig{Seed: 43}})
	rows := ingestRows(randx.New(6), 10)
	st, err := c.Ingest("applied", rows)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.poisoned = errors.New("batch 2 logged but not applied")
	c.mu.Unlock()
	if _, err := c.Ingest("next", ingestRows(randx.New(7), 10)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ingest on poisoned coordinator: err = %v, want ErrUnavailable", err)
	}
	if st2, err := c.Ingest("applied", rows); !errors.Is(err, ErrDuplicate) || st2 != st {
		t.Fatalf("pre-failure duplicate = %+v, %v; want original stats with ErrDuplicate", st2, err)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1 (nothing accepted while poisoned)", g)
	}
}

// TestCoordinatorDriftTriggersOneRebuild streams a brand-new heavy value
// until drift crosses the bound and requires exactly one firing of the
// SetOnDrift callback, then completes the rebuild handshake (with a tail
// batch landing mid-rebuild) and checks drift resets and the trigger
// re-arms.
func TestCoordinatorDriftTriggersOneRebuild(t *testing.T) {
	const n = 3000
	fired := make(chan float64, 8)
	sys, c, _ := newIngestSystem(t, n, t.TempDir(), Config{Online: core.OnlineConfig{Seed: 13}})
	c.SetOnDrift(func(d float64) { fired <- d })
	hot := func(count int) [][]engine.Value {
		rows := make([][]engine.Value, count)
		for i := range rows {
			rows[i] = []engine.Value{engine.StringVal("HOT"), engine.StringVal("B0"), engine.IntVal(1)}
		}
		return rows
	}
	var last core.BatchStats
	for i := 0; i < 20; i++ {
		st, err := c.Ingest("", hot(100))
		if err != nil {
			t.Fatal(err)
		}
		last = st
		if st.Drift >= 1 {
			break
		}
	}
	if last.Drift < 1 {
		t.Fatalf("drift never crossed 1 (at %g)", last.Drift)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("the drift callback never fired")
	}
	// Keep ingesting past the bound: no second firing while un-rebuilt.
	for i := 0; i < 3; i++ {
		if _, err := c.Ingest("", hot(100)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-fired:
		t.Fatalf("the drift callback fired twice (second drift %g)", d)
	default:
	}

	// Rebuild handshake, with one batch arriving while the rebuild runs.
	db, gen, err := c.beginRebuild()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := core.NewSmallGroup(ingestSGCfg).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("", hot(50)); err != nil {
		t.Fatal(err)
	}
	obsRebaseSeconds.Set(0)
	if err := c.completeRebuild(rebuilt, gen); err != nil {
		t.Fatal(err)
	}
	if s := obsRebaseSeconds.Value(); s <= 0 {
		t.Fatalf("aqp_ingest_rebase_seconds = %g after a completed rebuild, want the write stall", s)
	}
	if d := c.online.Drift(); d >= 1 {
		t.Fatalf("drift = %g after rebuild, want < 1 (HOT is common now)", d)
	}
	// HOT must now be answerable and the sample generation caught up.
	p, _ := sys.Prepared("smallgroup")
	if g := p.DataGeneration(); g != c.Generation() {
		t.Fatalf("sample generation %d != data generation %d after rebase", g, c.Generation())
	}
	// The trigger is re-armed: drive drift up again with another new value.
	hot2 := func(count int) [][]engine.Value {
		rows := make([][]engine.Value, count)
		for i := range rows {
			rows[i] = []engine.Value{engine.StringVal("HOT2"), engine.StringVal("B1"), engine.IntVal(2)}
		}
		return rows
	}
	for i := 0; i < 40; i++ {
		st, err := c.Ingest("", hot2(100))
		if err != nil {
			t.Fatal(err)
		}
		if st.Drift >= 1 {
			break
		}
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("the drift callback did not re-arm after rebuild")
	}
}

func BenchmarkIngest(b *testing.B) {
	const batchRows = 100
	rng := randx.New(29)
	batches := make([][][]engine.Value, 0, 64)
	for i := 0; i < 64; i++ {
		batches = append(batches, ingestRows(rng, batchRows))
	}
	// B/op at the longer tables is what shows a cost that grows with the
	// base data or the sample family instead of with the batch.
	for _, base := range []struct {
		name string
		rows int
	}{{"rows=20k", 20_000}, {"rows=100k", 100_000}, {"rows=1M", 1_000_000}} {
		b.Run(base.name, func(b *testing.B) {
			_, c, _ := newIngestSystem(b, base.rows, b.TempDir(), Config{Online: core.OnlineConfig{Seed: 23}})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Ingest("", batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batchRows)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}
