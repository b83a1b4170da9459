package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dynsample/internal/faults"
)

func save(t *testing.T, c *Catalog, payload string) uint64 {
	t.Helper()
	gen, err := c.Save(func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func load(t *testing.T, c *Catalog) (string, LoadResult, error) {
	t.Helper()
	var got bytes.Buffer
	res, err := c.LoadLatest(func(r io.Reader) error {
		got.Reset()
		_, err := got.ReadFrom(r)
		return err
	})
	return got.String(), res, err
}

func TestCatalogSaveLoadGenerations(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != 0 {
		t.Fatalf("fresh catalog generation = %d", g)
	}
	if _, _, err := load(t, c); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty catalog load err = %v, want ErrNoSnapshot", err)
	}
	for i := 1; i <= 3; i++ {
		if gen := save(t, c, fmt.Sprintf("payload-%d", i)); gen != uint64(i) {
			t.Fatalf("save %d returned generation %d", i, gen)
		}
	}
	got, res, err := load(t, c)
	if err != nil || got != "payload-3" || res.Generation != 3 {
		t.Fatalf("load = %q gen %d err %v", got, res.Generation, err)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("healthy catalog skipped %v", res.Skipped)
	}

	// Reopen resumes the counter from disk.
	c2, err := Open(c.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Generation() != 3 {
		t.Fatalf("reopened generation = %d, want 3", c2.Generation())
	}
	if gen := save(t, c2, "payload-4"); gen != 4 {
		t.Fatalf("post-reopen save generation = %d, want 4", gen)
	}
}

func TestCatalogRetentionPruning(t *testing.T) {
	c, err := Open(t.TempDir(), Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		save(t, c, fmt.Sprintf("p%d", i))
	}
	gens := c.Generations()
	if len(gens) != 2 || gens[0] != 5 || gens[1] != 4 {
		t.Fatalf("retained generations = %v, want [5 4]", gens)
	}
	if files := dirNames(t, c.dir); !slices.Equal(files, []string{"gen-0000000004.snap", "gen-0000000005.snap"}) {
		t.Fatalf("catalog directory holds %v, want the two retained generations alone", files)
	}
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCatalogOpensAnOlderDirectory starts over a catalog directory an
// earlier build wrote (testdata/manifest-dir: two generations and the
// advisory MANIFEST that build kept beside them). It opens, loads its newest
// generation, and saves the next one beside the old MANIFEST, which it leaves
// as it found it.
func TestCatalogOpensAnOlderDirectory(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "manifest-dir")
	names := dirNames(t, src)
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := load(t, c)
	if err != nil || got != "generation two" || res.Generation != 2 {
		t.Fatalf("load = %q gen %d err %v, want the newest generation", got, res.Generation, err)
	}
	if gen := save(t, c, "generation three"); gen != 3 {
		t.Fatalf("save returned generation %d, want 3", gen)
	}
	want := []string{"MANIFEST", "gen-0000000001.snap", "gen-0000000002.snap", "gen-0000000003.snap"}
	if files := dirNames(t, dir); !slices.Equal(files, want) {
		t.Fatalf("catalog directory holds %v, want %v", files, want)
	}
	before, err := os.ReadFile(filepath.Join(src, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "MANIFEST")); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the older build's MANIFEST changed (%v)", err)
	}
}

// TestCatalogRecoveryFallsBackToOlderGeneration corrupts the newest
// snapshots and checks startup recovery walks back to the first valid one,
// reporting what it skipped.
func TestCatalogRecoveryFallsBackToOlderGeneration(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		save(t, c, fmt.Sprintf("p%d", i))
	}
	// Flip one bit in gen 3, truncate gen 2.
	corrupt(t, c.Path(3), func(b []byte) []byte { b[len(b)/2] ^= 4; return b })
	corrupt(t, c.Path(2), func(b []byte) []byte { return b[:len(b)-3] })

	got, res, err := load(t, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != "p1" || res.Generation != 1 {
		t.Fatalf("recovered %q from gen %d, want p1 from gen 1", got, res.Generation)
	}
	if len(res.Skipped) != 2 || res.Skipped[0].Generation != 3 || res.Skipped[1].Generation != 2 {
		t.Fatalf("skipped = %+v", res.Skipped)
	}
	for _, s := range res.Skipped {
		if !errors.Is(s.Err, ErrCorrupt) {
			t.Errorf("gen %d skip error %v does not wrap ErrCorrupt", s.Generation, s.Err)
		}
	}
}

// TestCatalogRecoveryAllCorrupt: when every generation fails verification,
// LoadLatest reports ErrNoSnapshot so the caller rebuilds from scratch.
func TestCatalogRecoveryAllCorrupt(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	save(t, c, "p1")
	save(t, c, "p2")
	for _, g := range c.Generations() {
		corrupt(t, c.Path(g), func(b []byte) []byte { b[9] ^= 1; return b })
	}
	_, res, err := load(t, c)
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	if len(res.Skipped) != 2 {
		t.Fatalf("skipped = %+v", res.Skipped)
	}
	// Self-heal: a fresh save starts a new generation and load works again.
	if gen := save(t, c, "rebuilt"); gen != 3 {
		t.Fatalf("rebuild saved generation %d, want 3", gen)
	}
	got, resAfter, err := load(t, c)
	if err != nil || got != "rebuilt" || resAfter.Generation != 3 {
		t.Fatalf("after rebuild: %q gen %d err %v", got, resAfter.Generation, err)
	}
}

// TestCatalogCrashMidSaveKeepsOldGeneration simulates dying partway through
// a save (injected write failure): the new generation must not appear and
// the previous one stays loadable.
func TestCatalogCrashMidSaveKeepsOldGeneration(t *testing.T) {
	t.Cleanup(faults.Reset)
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	save(t, c, "stable")

	boom := errors.New("injected short write")
	faults.SetErr(faults.PointSnapshotWrite, faults.FailNth(1, boom))
	_, err = c.Save(func(w io.Writer) error {
		_, werr := w.Write(bytes.Repeat([]byte("x"), 3*chunkSize))
		return werr
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Save error = %v, want %v", err, boom)
	}
	faults.Reset()

	if g := c.Generation(); g != 1 {
		t.Fatalf("generation advanced to %d after failed save", g)
	}
	assertNoTempFiles(t, c.dir)
	got, res, err := load(t, c)
	if err != nil || got != "stable" || res.Generation != 1 {
		t.Fatalf("load after failed save: %q gen %d err %v", got, res.Generation, err)
	}
}

// TestCatalogFsyncFailureAborts: an fsync error must abort the commit — the
// data may not be durable, so renaming it into place would be a lie.
func TestCatalogFsyncFailureAborts(t *testing.T) {
	t.Cleanup(faults.Reset)
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	save(t, c, "stable")
	boom := errors.New("injected fsync failure")
	faults.SetErr(faults.PointSnapshotSync, faults.FailNth(0, boom))
	if _, err := c.Save(func(w io.Writer) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("Save error = %v, want %v", err, boom)
	}
	faults.Reset()
	if g := c.Generation(); g != 1 {
		t.Fatalf("generation advanced to %d after fsync failure", g)
	}
	assertNoTempFiles(t, c.dir)
}

// TestCatalogOpenSweepsTempFiles: leftover temp files from a crashed writer
// are removed and never mistaken for snapshots.
func TestCatalogOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	save(t, c, "p1")
	stray := filepath.Join(dir, tmpPrefix+"gen-0000000002.snap-123")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp file survived Open: %v", err)
	}
	if c2.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", c2.Generation())
	}
}

// TestCatalogConcurrentSaveLoad exercises Save racing LoadLatest under
// -race: readers always see a complete committed generation.
func TestCatalogConcurrentSaveLoad(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	save(t, c, "seed")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			payload := fmt.Sprintf("gen-payload-%d", i)
			if _, err := c.Save(func(w io.Writer) error {
				_, werr := io.WriteString(w, payload)
				return werr
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		got, _, err := load(t, c)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if got != "seed" && !strings.HasPrefix(got, "gen-payload-") {
			t.Fatalf("load %d saw torn payload %q", i, got)
		}
	}
	close(stop)
	wg.Wait()
}

func corrupt(t *testing.T, path string, mangle func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mangle(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestCatalogPruneFailureDoesNotFailSave: retention pruning is best-effort —
// an un-removable old snapshot must not fail the save that triggered it, and
// the orphan must not confuse later recovery.
func TestCatalogPruneFailureDoesNotFailSave(t *testing.T) {
	c, err := Open(t.TempDir(), Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	save(t, c, "p1")
	// Make generation 1 un-removable with plain os.Remove: swap the snapshot
	// file for a non-empty directory.
	p1 := c.Path(1)
	if err := os.Remove(p1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(p1, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if gen := save(t, c, "p2"); gen != 2 { // save() fails the test on error
		t.Fatalf("save returned generation %d, want 2", gen)
	}
	if _, err := os.Stat(p1); err != nil {
		t.Fatalf("orphaned generation unexpectedly gone: %v", err)
	}
	got, res, err := load(t, c)
	if err != nil || got != "p2" || res.Generation != 2 {
		t.Fatalf("load after failed prune: %q gen %d err %v", got, res.Generation, err)
	}
}
