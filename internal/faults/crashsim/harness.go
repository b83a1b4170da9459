// Package crashsim is a deterministic crash-point simulator for the ingest
// durability pipeline. A Harness drives the full lifecycle one process would
// — ingest → rebuild → checkpoint → segment GC → restart — against real
// on-disk state in a temp directory, while the scenarios (in the package's
// tests) inject crashes and I/O errors at the internal/faults hook points
// and at the interleavings between them: after the WAL append but before the
// in-memory apply, after the snapshot save but before the manifest write,
// after the checkpoint but before segment deletion, and partway through GC.
//
// Crash() abandons every in-memory handle, exactly as a kill -9 would leave
// things, and Start() recovers with ingest.Recover, the very function
// cmd/aqpd starts with; Rebuild() is ingest.Rebuild, the server's. The
// invariants every scenario checks:
//
//   - no acknowledged batch is lost (its rows count exactly once after
//     recovery),
//   - no batch is applied twice (never 2× the batch's row count),
//   - the restarted process converges to the same query answers as a
//     process that ran the same sequence and never crashed.
//
// The package is test support: it imports testing and is only consumed by
// its own test files.
package crashsim

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/randx"
)

const (
	// baseRowsN is the regenerated base table size; "regenerated" the same
	// way every Start, like aqpd rebuilding its synthetic base from flags.
	baseRowsN = 3000
	// rowsPerBatch rows per ingested batch; every batch carries a unique
	// b-column tag so exact counts prove at-most/at-least-once application.
	rowsPerBatch = 30
	// segBytes keeps WAL segments tiny so scenarios span several and
	// checkpoint GC has real files to delete.
	segBytes = 2048
	// onlineSeed must be identical across restarts of the same WAL for
	// bit-identical replay.
	onlineSeed = 424242
)

var sgCfg = core.SmallGroupConfig{
	BaseRate: 0.05, SmallGroupFraction: 0.05, DistinctLimit: 100, Seed: 17,
}

// Harness owns one simulated process plus its durable state directories.
// Zero or one process is "running" at a time; Crash or Stop ends it and
// Start recovers a new one from disk.
type Harness struct {
	t      testing.TB
	walDir string
	catDir string

	sys   *core.System
	coord *ingest.Coordinator
	wal   *ingest.WAL
	cat   *catalog.Catalog

	// Acked batch numbers, in ingest order, across all incarnations.
	acked []int
}

// New creates a harness with fresh durable directories. Nothing runs until
// Start.
func New(t testing.TB) *Harness {
	t.Helper()
	h := &Harness{t: t, walDir: t.TempDir(), catDir: t.TempDir()}
	t.Cleanup(h.Crash)
	return h
}

// baseDB regenerates the deterministic skewed base: a is 80% "A0", 15%
// "A1", 5% tail; b is uniform over four base values (batch tags are
// disjoint from these); m is a measure.
func baseDB(t testing.TB) *engine.Database {
	t.Helper()
	a := engine.NewColumn("a", engine.String)
	b := engine.NewColumn("b", engine.String)
	m := engine.NewColumn("m", engine.Int)
	fact := engine.NewTable("fact", a, b, m)
	rng := randx.New(8484)
	for i := 0; i < baseRowsN; i++ {
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
	db, err := engine.NewDatabase("crashsim", fact)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// BatchTag is batch k's unique b-column value; exact-counting it measures
// how many times the batch has been applied.
func BatchTag(k int) string { return fmt.Sprintf("BK%04d", k) }

// BatchID is batch k's client idempotency id.
func BatchID(k int) string { return fmt.Sprintf("batch-%04d", k) }

// BatchRows builds batch k's rows deterministically: same k, same rows, in
// every incarnation and in every reference run.
func BatchRows(k int) [][]engine.Value {
	rng := randx.New(int64(9000 + k))
	rows := make([][]engine.Value, rowsPerBatch)
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
			engine.StringVal(BatchTag(k)),
			engine.IntVal(int64(k*1000 + i)),
		}
	}
	return rows
}

// Start recovers a process from the durable directories with ingest.Recover
// — the function cmd/aqpd runs — over a regenerated base, and leaves the
// harness with a live coordinator. It fails the test on any recovery error,
// including the startup segment GC and the empty-catalog save that Recover
// itself only reports, and returns the replay stats so scenarios can assert
// recovery work was bounded.
func (h *Harness) Start() ingest.ReplayStats {
	h.t.Helper()
	if h.coord != nil {
		h.t.Fatal("crashsim: Start while a process is running (Crash first)")
	}
	sys := core.NewSystem(baseDB(h.t))
	cat, err := catalog.Open(h.catDir, catalog.Options{})
	if err != nil {
		h.t.Fatal(err)
	}
	w, err := ingest.OpenWALWith(h.walDir, ingest.WALOptions{SegmentBytes: segBytes})
	if err != nil {
		h.t.Fatal(err)
	}
	rec, err := ingest.Recover(sys, cat, w, core.NewSmallGroup(sgCfg), 0, ingest.Config{
		Online: core.OnlineConfig{Seed: onlineSeed},
		// Scenarios drive recovery deterministically via ProbeNow; park the
		// background prober out of the way.
		ProbeBackoff: time.Hour,
	})
	if err != nil {
		w.Close()
		h.t.Fatalf("crashsim: recovery: %v", err)
	}
	if rec.GCErr != nil || rec.SaveErr != nil {
		h.t.Fatalf("crashsim: recovery: startup segment gc: %v, first save: %v", rec.GCErr, rec.SaveErr)
	}
	h.sys, h.coord, h.wal, h.cat = sys, rec.Coordinator, w, cat
	return rec.Replay
}

// Crash ends the running process the way kill -9 would leave the disk: all
// in-memory state — samples, idempotency window, applied position — is
// gone; only the WAL and catalog directories remain. (File handles are
// closed so the next incarnation reopens cleanly; every acknowledged byte
// was already fsynced, so closing adds no durability a real crash would
// lack.) Safe to call when nothing runs.
func (h *Harness) Crash() {
	if h.coord != nil {
		h.coord.Close()
	}
	if h.wal != nil {
		h.wal.Close()
	}
	h.sys, h.coord, h.wal, h.cat = nil, nil, nil, nil
}

// Coordinator exposes the running coordinator for scenario-specific calls
// (ProbeNow, State, direct Ingest of duplicate ids).
func (h *Harness) Coordinator() *ingest.Coordinator { return h.coord }

// Catalog exposes the running incarnation's catalog handle.
func (h *Harness) Catalog() *catalog.Catalog { return h.cat }

// Ingest submits batch k and records it as acknowledged on success.
func (h *Harness) Ingest(k int) error {
	h.t.Helper()
	_, err := h.coord.Ingest(BatchID(k), BatchRows(k))
	if err == nil {
		h.acked = append(h.acked, k)
	}
	return err
}

// MustIngest ingests batches first..last inclusive, failing the test on any
// error.
func (h *Harness) MustIngest(first, last int) {
	h.t.Helper()
	for k := first; k <= last; k++ {
		if err := h.Ingest(k); err != nil {
			h.t.Fatalf("crashsim: ingest batch %d: %v", k, err)
		}
	}
}

// Rebuild runs ingest.Rebuild — the function the server's background
// rebuild runs — synchronously and without persisting; scenarios checkpoint
// as a separate step so faults can land between the two.
func (h *Harness) Rebuild() {
	h.t.Helper()
	if _, err := ingest.Rebuild(h.sys, h.coord, nil, core.NewSmallGroup(sgCfg), "smallgroup", 0); err != nil {
		h.t.Fatal(err)
	}
}

// Checkpoint persists the current state as a checkpointed snapshot and GCs
// covered WAL segments, returning the raw result for scenario assertions.
func (h *Harness) Checkpoint() (ingest.CheckpointResult, error) {
	return h.coord.SaveCheckpoint(h.cat)
}

// Applications exact-counts batch k's unique tag: 0 means the batch is
// absent, 1 means applied exactly once, 2 means double-applied.
func (h *Harness) Applications(k int) int {
	h.t.Helper()
	q := &engine.Query{
		GroupBy: []string{"b"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}},
	}
	res, _, err := h.sys.Exact(q)
	if err != nil {
		h.t.Fatal(err)
	}
	g := res.Group(engine.EncodeKey([]engine.Value{engine.StringVal(BatchTag(k))}))
	if g == nil {
		return 0
	}
	n := int(g.Vals[0])
	if n%rowsPerBatch != 0 {
		h.t.Fatalf("crashsim: batch %d has %d rows, not a multiple of %d", k, n, rowsPerBatch)
	}
	return n / rowsPerBatch
}

// CheckAcked asserts the core contract: every acknowledged batch is present
// exactly once — neither lost nor double-applied.
func (h *Harness) CheckAcked() {
	h.t.Helper()
	for _, k := range h.acked {
		if got := h.Applications(k); got != 1 {
			h.t.Errorf("crashsim: acked batch %d applied %d times, want exactly once", k, got)
		}
	}
}

// Answers snapshots the approximate grouped answer bit-exactly, for
// comparing a recovered process against an uncrashed reference.
func (h *Harness) Answers() string {
	h.t.Helper()
	q := &engine.Query{
		GroupBy: []string{"a", "b"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}},
	}
	ans, err := h.sys.Approx("smallgroup", q)
	if err != nil {
		h.t.Fatal(err)
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

// WriteTornSegmentCreation plants a segment file holding only a partial
// header at index idx, the on-disk signature of a process that died between
// creating the rotation's next segment and making its magic durable.
func (h *Harness) WriteTornSegmentCreation(idx uint64) {
	h.t.Helper()
	path := filepath.Join(h.walDir, fmt.Sprintf("wal-%010d.seg", idx))
	if err := os.WriteFile(path, []byte("DSW"), 0o644); err != nil {
		h.t.Fatal(err)
	}
}

// WALSegments lists the WAL segment indexes on disk, ascending.
func (h *Harness) WALSegments() []uint64 {
	h.t.Helper()
	ents, err := os.ReadDir(h.walDir)
	if err != nil {
		h.t.Fatal(err)
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
