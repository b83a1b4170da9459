package core_test

import (
	"math"
	"runtime"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/scenario"
)

// TestSampleFamilyHeldBytesMatchStoredBytes: StoredBytes — the figure behind
// aqp_engine_stored_bytes{set="samples"} — is what the family holds: its
// tables, the joins of its fact slices and the metadata's value sets. The
// live heap is measured with the family alive and again with it dropped; the
// difference must be within 3 % of the reported size (1.2 % as measured: at
// a bit or two a row a chunk's list entry is a good part of what it holds,
// and is counted).
func TestSampleFamilyHeldBytesMatchStoredBytes(t *testing.T) {
	db, err := scenario.Builtin("tpch", 200000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.01, Seed: 1}).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	stored, rows := p.StoredBytes(), p.SampleRows()
	liveHeap := func() uint64 {
		var m runtime.MemStats
		// Twice: scratch a sync.Pool holds (scan 2's block buffers) outlives
		// one collection, and is not the family's.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	with := liveHeap()
	runtime.KeepAlive(p) // the family's last use: the second reading is without it
	held := int64(with - liveHeap())
	runtime.KeepAlive(db)
	t.Logf("%d sample rows: StoredBytes %d (%.1f B/row), live heap %d (%.1f B/row)",
		rows, stored, float64(stored)/float64(rows), held, float64(held)/float64(rows))
	if diff := math.Abs(float64(held-stored)) / float64(stored); diff > 0.03 {
		t.Fatalf("the family holds %d B of live heap and reports %d B stored: %.1f %% apart, want within 3 %%", held, stored, 100*diff)
	}
}
