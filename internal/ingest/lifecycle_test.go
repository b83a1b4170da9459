package ingest

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
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
		lcfg := cfg
		lcfg.Online.SmallGroupFraction = ingestSGCfg.SmallGroupFraction
		rec, err := Recover(sys, cat, w, core.NewSmallGroup(ingestSGCfg), 0, lcfg)
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
				if rec.Source != "preprocess" || rec.Generation != 3 || len(rec.Skipped) != 2 || rec.Checkpoint != nil {
					t.Fatalf("recovery = %q generation %d with %d skipped, want a fresh build saved as generation 3 past 2 corrupt ones",
						rec.Source, rec.Generation, len(rec.Skipped))
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
				live(t, n+500, cat, t.TempDir(), 0, 1, true) // generation 2, another base
			},
			check: func(t *testing.T, _ *catalog.Catalog, sys *core.System, rec *Recovery) {
				if rec.Source != "snapshot" || rec.Generation != 1 || len(rec.Skipped) != 1 || rec.Skipped[0].Generation != 2 {
					t.Fatalf("recovery = %q generation %d, skipped %+v; want generation 1 with generation 2 reported skipped",
						rec.Source, rec.Generation, rec.Skipped)
				}
				if sys.DB().NumRows() != n {
					t.Fatalf("base has %d rows after recovery, want the %d regenerated ones and no foreign delta", sys.DB().NumRows(), n)
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
				if rec.Generation != 2 || rec.Checkpoint == nil || rec.Checkpoint.DataGen != 3 {
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
			sys, rec := recoverNow(t, n, cat, walDir, cfg)
			tc.check(t, cat, sys, rec)
		})
	}
}
