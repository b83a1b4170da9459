package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// TestRecover drives Recover over each kind of durable state a process can
// wake up to. Every case prepares catalog and WAL directories (an empty
// walDir means the process runs without a WAL), restarts onto a regenerated
// n-row base, and checks what Recover reports and what now serves.
func TestRecover(t *testing.T) {
	const n = 3000
	cfg := Config{Online: core.OnlineConfig{Seed: 95}}
	// live brings up a process over the directories, ingests batches
	// b-first..b-(last-1), and leaves its WAL closed as a crash would.
	live := func(t *testing.T, rows int, cat *catalog.Catalog, walDir string, first, last int, checkpoint bool) {
		t.Helper()
		w, err := OpenWAL(walDir)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		sys := core.NewSystem(ingestDB(t, rows))
		rec, err := Recover(sys, cat, w, core.NewSmallGroup(ingestSGCfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(int64(80 + first))
		for i := first; i < last; i++ {
			if _, err := rec.Coordinator.Ingest(fmt.Sprintf("b-%d", i), ingestRows(rng, 40)); err != nil {
				t.Fatal(err)
			}
		}
		if checkpoint {
			res, err := Rebuild(sys, rec.Coordinator, cat, core.NewSmallGroup(ingestSGCfg), "smallgroup", 0)
			if err != nil || res.PersistErr != nil || res.Generation == 0 {
				t.Fatalf("rebuild + checkpoint = %+v, %v", res, err)
			}
		}
	}
	corrupt := func(t *testing.T, cat *catalog.Catalog, gen uint64) {
		t.Helper()
		b, err := os.ReadFile(cat.Path(gen))
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x20
		if err := os.WriteFile(cat.Path(gen), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name  string
		noWAL bool
		rows  int // the restart's base rows; 0 means n
		setup func(t *testing.T, cat *catalog.Catalog, walDir string)
		check func(t *testing.T, cat *catalog.Catalog, sys *core.System, rec *Recovery)
	}{
		{
			name:  "empty catalog: pre-process and persist generation 1",
			setup: func(*testing.T, *catalog.Catalog, string) {},
			check: func(t *testing.T, cat *catalog.Catalog, _ *core.System, rec *Recovery) {
				if rec.Source != "preprocess" || rec.Generation != 1 || cat.Generation() != 1 || len(rec.Skipped) != 0 {
					t.Fatalf("recovery = %q generation %d (catalog at %d, %d skipped), want a fresh build saved as generation 1",
						rec.Source, rec.Generation, cat.Generation(), len(rec.Skipped))
				}
				// The saved generation is what the next start serves.
				_, again := recoverNow(t, n, cat, "", cfg)
				if again.Source != "snapshot" || again.Generation != 1 {
					t.Fatalf("second recovery = %q generation %d, want generation 1 from the snapshot", again.Source, again.Generation)
				}
			},
		},
		{
			name: "every generation corrupt: self-heal as the next generation",
			setup: func(t *testing.T, cat *catalog.Catalog, walDir string) {
				live(t, n, cat, walDir, 0, 2, true) // generations 1 and 2
				corrupt(t, cat, 1)
				corrupt(t, cat, 2)
			},
			check: func(t *testing.T, cat *catalog.Catalog, sys *core.System, rec *Recovery) {
				if rec.Source != "preprocess" || rec.Generation != 3 || len(rec.Skipped) != 2 || *rec.Checkpoint != (Checkpoint{BaseRows: n}) {
					t.Fatalf("recovery = %q generation %d with %d skipped, checkpoint %+v; want a fresh build saved as generation 3 past 2 corrupt ones, covering nothing",
						rec.Source, rec.Generation, len(rec.Skipped), rec.Checkpoint)
				}
				// Nothing covers the log any more, so all of it replays.
				if rec.Replay.Batches != 2 || rec.Replay.Covered != 0 || sys.DB().NumRows() != n+2*40 {
					t.Fatalf("replay = %+v over %d rows, want both logged batches re-applied", rec.Replay, sys.DB().NumRows())
				}
			},
		},
		{
			name: "newest checkpoint cut over a different base: older generation chosen",
			setup: func(t *testing.T, cat *catalog.Catalog, walDir string) {
				live(t, n, cat, t.TempDir(), 0, 0, false)    // generation 1, n-row base
				live(t, n+500, cat, t.TempDir(), 0, 1, true) // generations 2 (from scratch) and 3 (checkpoint), another base
			},
			check: func(t *testing.T, _ *catalog.Catalog, sys *core.System, rec *Recovery) {
				if rec.Source != "snapshot" || rec.Generation != 1 || len(rec.Skipped) != 2 || rec.Skipped[1].Generation != 2 {
					t.Fatalf("recovery = %q generation %d, skipped %+v; want generation 1 with generations 3 and 2 reported skipped",
						rec.Source, rec.Generation, rec.Skipped)
				}
				if sys.DB().NumRows() != n {
					t.Fatalf("base has %d rows after recovery, want the %d regenerated ones and no foreign delta", sys.DB().NumRows(), n)
				}
			},
		},
		{
			name:  "from-scratch generation over another base: skipped, pre-process and save generation 2",
			rows:  n + 500,
			setup: func(t *testing.T, cat *catalog.Catalog, walDir string) { live(t, n, cat, walDir, 0, 0, false) },
			check: func(t *testing.T, cat *catalog.Catalog, sys *core.System, rec *Recovery) {
				if len(rec.Skipped) != 1 || rec.Skipped[0].Generation != 1 ||
					!strings.Contains(rec.Skipped[0].Err.Error(), fmt.Sprintf("covers %d base rows", n)) {
					t.Fatalf("skipped %+v, want generation 1 refused as cut over %d base rows", rec.Skipped, n)
				}
				if rec.Source != "preprocess" || rec.Generation != 2 || cat.Generation() != 2 || sys.DB().NumRows() != n+500 {
					t.Fatalf("recovery = %q generation %d (catalog at %d) over %d rows, want a fresh build over %d rows saved as generation 2",
						rec.Source, rec.Generation, cat.Generation(), sys.DB().NumRows(), n+500)
				}
			},
		},
		{
			name: "checkpoint plus WAL tail: only the tail replays, covered ids stay duplicates",
			setup: func(t *testing.T, cat *catalog.Catalog, walDir string) {
				live(t, n, cat, walDir, 0, 3, true)  // b-0..b-2 inside checkpoint generation 2
				live(t, n, cat, walDir, 3, 5, false) // b-3, b-4 only in the log
			},
			check: func(t *testing.T, _ *catalog.Catalog, sys *core.System, rec *Recovery) {
				if rec.Generation != 2 || rec.Checkpoint.DataGen != 3 {
					t.Fatalf("recovered generation %d checkpoint %+v, want generation 2 covering 3 batches", rec.Generation, rec.Checkpoint)
				}
				if rec.Replay.Batches != 2 || rec.Replay.Covered != 3 || sys.DB().NumRows() != n+5*40 {
					t.Fatalf("replay = %+v over %d rows, want 2 tail batches applied and 3 covered ones skipped", rec.Replay, sys.DB().NumRows())
				}
				rows := ingestRows(randx.New(1), 40)
				for _, id := range []string{"b-1", "b-4"} {
					if _, err := rec.Coordinator.Ingest(id, rows); !errors.Is(err, ErrDuplicate) {
						t.Fatalf("re-ingesting %s after recovery: err = %v, want ErrDuplicate", id, err)
					}
				}
			},
		},
		{
			name:  "no WAL: samples recover, no coordinator",
			noWAL: true,
			setup: func(t *testing.T, cat *catalog.Catalog, walDir string) { live(t, n, cat, walDir, 0, 0, false) },
			check: func(t *testing.T, _ *catalog.Catalog, sys *core.System, rec *Recovery) {
				if rec.Coordinator != nil || rec.Replay != (ReplayStats{}) {
					t.Fatalf("recovery without a WAL returned coordinator %v and replay %+v", rec.Coordinator, rec.Replay)
				}
				if _, ok := sys.Prepared("smallgroup"); !ok || rec.Source != "snapshot" || rec.Generation != 1 {
					t.Fatalf("recovery = %q generation %d, want generation 1 serving from the snapshot", rec.Source, rec.Generation)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, err := catalog.Open(t.TempDir(), catalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			walDir := t.TempDir()
			tc.setup(t, cat, walDir)
			if tc.noWAL {
				walDir = ""
			}
			rows := n
			if tc.rows != 0 {
				rows = tc.rows
			}
			sys, rec := recoverNow(t, rows, cat, walDir, cfg)
			tc.check(t, cat, sys, rec)
		})
	}
}

// TestRecoverRefusesAnotherConfig restarts over a generation built at base
// rate 0.01 with 0.02 configured. The generation records the config that
// built it, so Recover skips it with a reason naming BaseRate, pre-processes
// at the configured rate and saves the result as generation 2, which the
// next start with that config restores. A uniform family (nothing in S) is
// refused the same way, by its Columns.
func TestRecoverRefusesAnotherConfig(t *testing.T) {
	const n = 20000
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := func(cfg core.SmallGroupConfig) (core.Prepared, *Recovery) {
		t.Helper()
		st := core.NewSmallGroup(cfg)
		sys := core.NewSystem(ingestDB(t, n))
		rec, err := Recover(sys, cat, nil, st, Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, _ := sys.Prepared(st.Name())
		return p, rec
	}
	r01 := core.SmallGroupConfig{BaseRate: 0.01, Seed: 3}
	r02 := core.SmallGroupConfig{BaseRate: 0.02, Seed: 3}
	if _, rec := at(r01); rec.Source != "preprocess" || rec.Generation != 1 {
		t.Fatalf("first start = %q generation %d, want a fresh build saved as generation 1", rec.Source, rec.Generation)
	}
	p, rec := at(r02)
	if len(rec.Skipped) != 1 || rec.Skipped[0].Generation != 1 || !strings.Contains(rec.Skipped[0].Err.Error(), "BaseRate") {
		t.Fatalf("skipped %+v, want generation 1 refused for its BaseRate", rec.Skipped)
	}
	if rec.Source != "preprocess" || rec.Generation != 2 {
		t.Fatalf("restart at r = 0.02 = %q generation %d, want a fresh build saved as generation 2", rec.Source, rec.Generation)
	}
	fresh, err := core.NewSmallGroup(r02).Preprocess(ingestDB(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleRows() != fresh.SampleRows() {
		t.Fatalf("serving %d sample rows, a build at r = 0.02 draws %d", p.SampleRows(), fresh.SampleRows())
	}
	if _, rec := at(r02); rec.Source != "snapshot" || rec.Generation != 2 || len(rec.Skipped) != 0 {
		t.Fatalf("second restart at r = 0.02 = %q generation %d (%d skipped), want generation 2 restored", rec.Source, rec.Generation, len(rec.Skipped))
	}
	uniform := core.SmallGroupConfig{BaseRate: 0.02, Columns: []string{}, Seed: 3}
	if _, rec := at(uniform); rec.Source != "preprocess" || len(rec.Skipped) != 1 || !strings.Contains(rec.Skipped[0].Err.Error(), "Columns") {
		t.Fatalf("uniform start = %q, skipped %+v; want the small group generation refused for its Columns", rec.Source, rec.Skipped)
	}
}

// TestRecoverAnotherConfigKeepsTheData restarts at another base rate over a
// checkpoint whose batches the WAL no longer holds: their rows, ids and data
// generation live only in the checkpoint. Recover must keep them, build the
// configured family over base plus delta, save it as the next generation and
// replay the WAL's tail on top.
func TestRecoverAnotherConfigKeepsTheData(t *testing.T) {
	const n = 3000
	cfg := Config{Online: core.OnlineConfig{Seed: 95}}
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	w, err := OpenWALWith(walDir, WALOptions{SegmentBytes: ckSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(ingestDB(t, n))
	rec, err := Recover(sys, cat, w, core.NewSmallGroup(ingestSGCfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(7)
	for i := 0; i < 7; i++ {
		if i == 6 { // b-0..b-5 inside checkpoint generation 2, b-6 only in the log
			res, err := Rebuild(sys, rec.Coordinator, cat, core.NewSmallGroup(ingestSGCfg), "smallgroup", 0)
			if err != nil || res.PersistErr != nil || res.Generation != 2 || res.Removed == 0 {
				t.Fatalf("rebuild + checkpoint = %+v, %v; want generation 2 with WAL segments removed", res, err)
			}
		}
		if _, err := rec.Coordinator.Ingest(fmt.Sprintf("b-%d", i), ingestRows(rng, 40)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	other := ingestSGCfg
	other.BaseRate = 0.1
	restart := func() (*core.System, *Recovery) {
		t.Helper()
		w, err := OpenWALWith(walDir, WALOptions{SegmentBytes: ckSegBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		sys := core.NewSystem(ingestDB(t, n))
		rec, err := Recover(sys, cat, w, core.NewSmallGroup(other), cfg)
		if err != nil {
			t.Fatalf("restart at another base rate: %v", err)
		}
		return sys, rec
	}
	sys, rec = restart()
	if len(rec.Skipped) != 1 || rec.Skipped[0].Generation != 2 || !strings.Contains(rec.Skipped[0].Err.Error(), "BaseRate") {
		t.Fatalf("skipped %+v, want generation 2 refused for its BaseRate", rec.Skipped)
	}
	if rec.Source != "preprocess" || rec.Generation != 3 || rec.SaveErr != nil || rec.Checkpoint.DataGen != 6 {
		t.Fatalf("recovery = %q generation %d (save: %v), checkpoint %+v; want a build over the checkpoint's data saved as generation 3",
			rec.Source, rec.Generation, rec.SaveErr, rec.Checkpoint)
	}
	if rec.Replay.Batches != 1 || sys.DB().NumRows() != n+7*40 || sys.DataGeneration() != 7 {
		t.Fatalf("replay = %+v, %d rows at data generation %d; want b-6 re-applied over all %d rows", rec.Replay, sys.DB().NumRows(), sys.DataGeneration(), n+7*40)
	}
	if _, err := rec.Coordinator.Ingest("b-1", ingestRows(rng, 40)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-ingesting b-1: err = %v, want ErrDuplicate", err)
	}
	// Generation 3's family covers the checkpoint's batches, as its header says.
	res, err := cat.LoadLatest(func(r io.Reader) error {
		s, err := DecodeSnapshot(r)
		if err == nil && s.Prepared.DataGeneration() != s.Checkpoint.DataGen {
			err = fmt.Errorf("family at data generation %d, checkpoint at %d", s.Prepared.DataGeneration(), s.Checkpoint.DataGen)
		}
		return err
	})
	if err != nil || res.Generation != 3 || len(res.Skipped) != 0 {
		t.Fatalf("loading generation 3: %+v, %v", res, err)
	}
	p, _ := sys.Prepared("smallgroup")
	if err := core.NewSmallGroup(other).CheckFamily(p); err != nil || p.DataGeneration() != 7 {
		t.Fatalf("serving family: %v at data generation %d, want the configured one at 7", err, p.DataGeneration())
	}
	if sys, rec := restart(); rec.Source != "snapshot" || rec.Generation != 3 || len(rec.Skipped) != 0 || sys.DB().NumRows() != n+7*40 {
		t.Fatalf("second restart = %q generation %d (%d skipped) over %d rows, want generation 3 restored", rec.Source, rec.Generation, len(rec.Skipped), sys.DB().NumRows())
	}
}

// TestRecoverAppliesScanRate: a saved family records neither runtime setting
// of its strategy, so Recover applies both to the family it restores — the
// scan rate as well as the worker budget. Pinned at one row a second, a
// query with a deadline falls back to the overall sample on the restored
// family as on the fresh build.
func TestRecoverAppliesScanRate(t *testing.T) {
	cfg := ingestSGCfg
	cfg.ScanRowsPerSecond = 1
	cfg.Workers = 2
	cat, err := catalog.Open(t.TempDir(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
	for _, source := range []string{"preprocess", "snapshot"} {
		sys := core.NewSystem(ingestDB(t, 3000))
		rec, err := Recover(sys, cat, nil, core.NewSmallGroup(cfg), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Source != source {
			t.Fatalf("start from %q, want %q", rec.Source, source)
		}
		full, err := sys.Approx("smallgroup", q)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		ans, err := sys.ApproxCtx(ctx, "smallgroup", q)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Rewrite.Steps) < 2 || !ans.Degraded || len(ans.Rewrite.Steps) != 1 {
			t.Fatalf("%s: the full plan has %d steps, the deadline plan %d (degraded %v); want the overall sample alone",
				source, len(full.Rewrite.Steps), len(ans.Rewrite.Steps), ans.Degraded)
		}
	}
}
