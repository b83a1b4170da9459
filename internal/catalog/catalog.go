package catalog

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dynsample/internal/obs"
)

// Catalog instrumentation: durability operations are rare (one per rebuild
// or startup), so counting them costs nothing and makes snapshot rot
// visible on /metrics long before an operator reads the logs.
var (
	obsSaves = obs.Default().CounterVec("aqp_catalog_saves_total",
		"Snapshot generations saved, by status.", "status")
	obsLoads = obs.Default().CounterVec("aqp_catalog_snapshot_loads_total",
		"Snapshot load attempts during recovery, by status (a skipped "+
			"generation counts one error).", "status")
)

const (
	snapPrefix = "gen-"
	snapSuffix = ".snap"
	// DefaultRetain is how many snapshot generations Save keeps when
	// Options.Retain is zero. More than one, so a generation that passes its
	// write-time checksums but rots on disk later still has fallbacks.
	DefaultRetain = 3
)

// ErrNoSnapshot is returned by LoadLatest when the catalog holds no
// loadable snapshot — the directory is empty or every generation failed
// verification. Callers self-heal by rebuilding from the base data and
// saving a fresh generation.
var ErrNoSnapshot = errors.New("catalog: no valid snapshot")

// Options configures Open.
type Options struct {
	// Retain is how many newest generations Save keeps on disk; older
	// snapshots are pruned after each successful save. Zero means
	// DefaultRetain; negative disables pruning.
	Retain int
}

// Catalog manages a directory of snapshot generations. Save is serialised
// internally; LoadLatest and the accessors are safe to call concurrently
// with Save.
type Catalog struct {
	dir    string
	retain int

	mu  sync.Mutex    // serialises Save (and prune bookkeeping)
	gen atomic.Uint64 // newest committed generation, 0 = none

	pruneLogged bool // one log line per process for failing prunes
}

// Open creates (if needed) and scans a catalog directory, resuming the
// generation counter from the newest snapshot present. Leftover temporary
// files from crashed writers are removed.
func Open(dir string, opts Options) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: creating %s: %w", dir, err)
	}
	c := &Catalog{dir: dir, retain: opts.Retain}
	if c.retain == 0 {
		c.retain = DefaultRetain
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", dir, err)
	}
	var newest uint64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if g, ok := parseGen(e.Name()); ok && g > newest {
			newest = g
		}
	}
	c.gen.Store(newest)
	return c, nil
}

// Generation returns the newest committed generation number (0 if none).
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// Path returns the snapshot file path for a generation.
func (c *Catalog) Path(gen uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s%010d%s", snapPrefix, gen, snapSuffix))
}

// Generations lists the generation numbers present on disk, newest first.
// Presence does not imply validity; LoadLatest verifies.
func (c *Catalog) Generations() []uint64 {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range entries {
		if g, ok := parseGen(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens
}

// Save writes the payload as the next snapshot generation: crash-safe
// (WriteFileAtomic) and self-verifying (WriteSnapshot). On success it
// advances the generation counter and prunes generations beyond the
// retention limit. On failure the catalog is unchanged — the previous
// generation remains current and loadable.
func (c *Catalog) Save(payload func(io.Writer) error) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.gen.Load() + 1
	path := c.Path(next)
	err := WriteFileAtomic(path, func(w io.Writer) error {
		return WriteSnapshot(w, payload)
	})
	if err != nil {
		obsSaves.With("error").Inc()
		return 0, fmt.Errorf("catalog: saving generation %d: %w", next, err)
	}
	obsSaves.With("ok").Inc()
	c.gen.Store(next)
	c.prune()
	return next, nil
}

// SkippedSnapshot records one generation LoadLatest could not use and why.
type SkippedSnapshot struct {
	Generation uint64
	Path       string
	Err        error
}

// LoadResult reports which generation LoadLatest loaded and which newer
// generations it had to skip as corrupt or unreadable.
type LoadResult struct {
	Generation uint64
	Skipped    []SkippedSnapshot
}

// LoadLatest walks the on-disk generations newest→oldest and decodes the
// first one that fully verifies, returning which generation loaded and what
// was skipped on the way. decode runs once per attempt and must produce a
// fresh value each time; its result is only valid when LoadLatest returns a
// nil error (see ReadSnapshot). When nothing loads it returns ErrNoSnapshot
// (wrapped, with the per-generation failures in LoadResult.Skipped) and the
// caller is expected to rebuild from scratch.
func (c *Catalog) LoadLatest(decode func(io.Reader) error) (LoadResult, error) {
	var res LoadResult
	for _, gen := range c.Generations() {
		path := c.Path(gen)
		err := readSnapshotFile(path, decode)
		if err == nil {
			obsLoads.With("ok").Inc()
			res.Generation = gen
			return res, nil
		}
		obsLoads.With("error").Inc()
		res.Skipped = append(res.Skipped, SkippedSnapshot{Generation: gen, Path: path, Err: err})
	}
	if len(res.Skipped) == 0 {
		return res, fmt.Errorf("%w in %s", ErrNoSnapshot, c.dir)
	}
	return res, fmt.Errorf("%w in %s: all %d generation(s) failed verification (newest: %v)",
		ErrNoSnapshot, c.dir, len(res.Skipped), res.Skipped[0].Err)
}

func readSnapshotFile(path string, decode func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ReadSnapshot(f, decode)
}

// prune removes generations beyond the retention limit (newest first is
// kept). Called with mu held after a successful save. A failed removal is
// counted in the snapshot error metric and logged once per process: the
// orphaned generation is harmless for correctness (recovery verifies
// checksums) but eats disk until an operator notices.
func (c *Catalog) prune() {
	if c.retain < 0 {
		return
	}
	gens := c.Generations()
	for _, g := range gens[min(c.retain, len(gens)):] {
		if err := os.Remove(c.Path(g)); err != nil {
			obsSaves.With("prune_error").Inc()
			if !c.pruneLogged {
				c.pruneLogged = true
				log.Printf("catalog: pruning generation %d failed (orphaned snapshot will use disk until removed): %v", g, err)
			}
		}
	}
}

// parseGen extracts the generation number from a snapshot file name.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
	if err != nil || g == 0 {
		return 0, false
	}
	return g, true
}
