package ingest

import (
	"fmt"
	"math/rand"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
)

// TestAccuracyVsIngestVolume is the EXPERIMENTS.md accuracy-vs-ingest-volume
// experiment: stream rows whose distribution has shifted from the base (a new
// hot value plus new rare values) and measure, at growing appended volume,
// the per-group error of the online-maintained sample set against the exact
// answer — and against a "frozen" baseline that appends the base rows but
// never maintains the samples. Online maintenance must keep every group
// present (new rare values are inserted into the small group tables
// directly) with bounded error; the frozen baseline must visibly miss the
// new groups. Run with -v for the measured table.
func TestAccuracyVsIngestVolume(t *testing.T) {
	const n = 20000
	dir := t.TempDir()
	sys, c, _ := newIngestSystem(t, n, dir, Config{
		Online:     core.OnlineConfig{Seed: 7},
		DriftBound: -1, // measure drift, never trigger a rebuild
	})
	frozen, _ := sys.Prepared("smallgroup")

	q := &engine.Query{
		GroupBy: []string{"a"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}},
	}
	// Shifted stream: "ZZ" is a brand-new hot value, "N0".."N7" are brand-new
	// rare values; the base's own values make up the rest.
	rng := rand.New(rand.NewSource(99))
	shifted := func(count int) [][]engine.Value {
		rows := make([][]engine.Value, count)
		for i := range rows {
			var a string
			switch r := rng.Float64(); {
			case r < 0.60:
				a = "A0"
			case r < 0.75:
				a = "A1"
			case r < 0.90:
				a = "ZZ"
			default:
				a = "N" + string(rune('0'+rng.Intn(8)))
			}
			rows[i] = []engine.Value{
				engine.StringVal(a),
				engine.StringVal("B" + string(rune('0'+rng.Intn(4)))),
				engine.IntVal(int64(rng.Intn(31)) + 1),
			}
		}
		return rows
	}

	checkpoints := []int{1000, 2000, 5000, 10000} // 5%..50% of the base
	appended, batchNo := 0, 0
	t.Logf("%8s %12s %12s %12s %12s %8s", "appended", "RelErr", "missed%", "frozenRelErr", "frozenMiss%", "drift")
	for _, target := range checkpoints {
		for appended < target {
			batch := shifted(500)
			if _, err := c.Ingest(fmt.Sprintf("exp-%d", batchNo), batch); err != nil {
				t.Fatal(err)
			}
			appended += len(batch)
			batchNo++
		}
		exact, _, err := sys.Exact(q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := sys.Approx("smallgroup", q)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := metrics.Compare(exact, ans.Result, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Frozen baseline: same appended base, pre-ingest sample set.
		fsys := core.NewSystem(sys.DB())
		fsys.AddPrepared("smallgroup", frozen)
		fans, err := fsys.Approx("smallgroup", q)
		if err != nil {
			t.Fatal(err)
		}
		facc, err := metrics.Compare(exact, fans.Result, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%7d%% %12.4f %12.1f %12.4f %12.1f %8.3f",
			appended*100/n, acc.RelErr, acc.PctGroups, facc.RelErr, facc.PctGroups, c.online.Drift())

		if acc.PctGroups != 0 {
			t.Errorf("at %d appended rows the maintained answer misses %.1f%% of groups, want 0", appended, acc.PctGroups)
		}
		if acc.RelErr > 0.25 {
			t.Errorf("at %d appended rows maintained RelErr = %.4f, want bounded (<= 0.25)", appended, acc.RelErr)
		}
	}
	// After a 50% volume shift, the frozen baseline must be visibly worse:
	// it cannot know the new groups exist.
	exact, _, err := sys.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	fsys := core.NewSystem(sys.DB())
	fsys.AddPrepared("smallgroup", frozen)
	fans, err := fsys.Approx("smallgroup", q)
	if err != nil {
		t.Fatal(err)
	}
	facc, err := metrics.Compare(exact, fans.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	if facc.Missed == 0 {
		t.Error("frozen baseline misses no groups — the shifted stream should have introduced new ones")
	}
}
