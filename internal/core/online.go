package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// Online sample maintenance: the ingest subsystem's bridge into small group
// sampling. The paper builds its sample family in an offline pre-processing
// phase and leaves maintenance under updates open; Online closes that gap by
// keeping the family statistically valid as rows stream in, WITHOUT touching
// the frozen pre-processing decisions:
//
//   - A batch is appended to the base data first, and its rows' membership
//     masks come from the mask path scan 2 uses (bandSplit.masks), over
//     classes built from the family's metadata and grown to each version a
//     batch appends (metaSplit, RowClassifier.Grow). So one rule serves
//     build and ingest: a row whose value in column C lies outside the
//     frozen common set L(C) is appended, completely, to C's small group
//     table, and rare groups keep their exact answers. Values never seen
//     before are outside L(C) by definition and therefore captured exactly
//     from their first occurrence.
//   - The uniform overall sample continues as a reservoir (Vitter's
//     Algorithm R) of fixed capacity k over the growing stream: each new row
//     replaces a random slot with probability k/N, so after any number of
//     appends the overall sample is still a uniform k-of-N sample, and the
//     runtime scale factor N/k is updated per batch.
//   - Per-column frequency counts over the values outside L(C) detect
//     common-set drift: when some rare value's total count approaches the
//     t·N small-group threshold, the frozen decision "this value is rare" is
//     about to become wrong-side-of-the-split, and the drift gauge
//     (count / t·N for the heaviest rare value) crosses 1. Answers remain
//     correct either way — estimates stay unbiased and small groups stay
//     exact, the family is merely no longer the one pre-processing would
//     build — so the policy is to serve slightly-stale-but-correct answers
//     until drift exceeds a configured bound, then rebuild in the
//     background (see ingest.Coordinator).
//
// Every mutation is copy-on-write over the published state (engine
// CloneForAppend / SetRow plus a fresh smallGroupPrepared per batch),
// so concurrent queries keep scanning the version they pinned; Online itself
// is a single-writer object whose calls the caller must serialise.
type Online struct {
	sys      *System
	strategy string

	app *engine.Appender

	// seed is the configured reservoir seed; a batch's generator is derived
	// from it and the batch sequence number when the batch is applied, so the
	// draws for batch k depend only on (seed, k, seen-before-batch, cap) —
	// never on how many earlier batches this process replayed. That makes
	// Apply idempotent across a checkpoint: a restart that recovers batches
	// 1..k from a snapshot (without replaying them) still burns exactly the
	// draws for batch k+1 that an uninterrupted run would.
	seed int64

	gen uint64  // data generation: ingest batches applied to the base db
	t   float64 // small-group fraction (the t in the t·N threshold)

	// The maintenance state of the family being served. Rebase builds the
	// next family's aside and replaces this one whole.
	*family
}

// family is what online maintenance keeps for one sample family: the newest
// version of the family, the reservoir's position in the stream, its mask
// source, and the value tracking seeded from the family's metadata.
type family struct {
	p *smallGroupPrepared

	// Reservoir continuation state for the overall sample.
	cap  int   // reservoir capacity = overall sample rows (fixed until rebuild)
	seen int64 // stream length offered so far (= base rows)

	sampleGen uint64 // batches whose rows are represented in the sample family

	// split finds a row's membership mask, bound to the newest version.
	split *bandSplit

	// freqs counts, per meta column, total occurrences of each value outside
	// the frozen L(C); maxRareCount is the running maximum over all of them.
	// A column with more than maxTracked such values saturates.
	maxTracked   int
	freqs        []map[engine.Value]int64
	saturated    []bool
	maxRareCount int64

	// missing watches the columns pre-processing removed from S for having
	// NO small groups (§4.2.1: every value common): bit i of a row is set when
	// its value in the i'th of them is one the column never held when the
	// family was built. Such a value IS a small group, but no table exists to
	// insert it into, so the only correct response is a rebuild that
	// re-admits the column to S. missingNew counts the bits set; any makes
	// Drift report at least 1. τ-excluded columns (distinct count beyond
	// DistinctLimit) are not watched — a rebuild would drop them too.
	missing    *engine.RowClassifier
	missingNew int64
}

// maxTrackedPerColumn caps each column's rare-value frequency map. When a
// column exceeds it (a flood of brand-new distinct values), tracking
// saturates and Drift reports +Inf: the right response is a rebuild, whose
// scan 1 either re-splits the column or drops it from S via the τ cutoff.
const maxTrackedPerColumn = 4 * DefaultDistinctLimit

// OnlineConfig parameterises online maintenance.
type OnlineConfig struct {
	// SmallGroupFraction is t for the drift threshold t·N. Zero falls back
	// to the fraction the family was built with, which a family restored
	// from disk records too.
	SmallGroupFraction float64
	// Seed drives the continued reservoir. Each batch's draws are derived
	// from (Seed, batch sequence), so replaying any suffix of the batch
	// sequence with the same seed — a full replay from birth or a
	// checkpointed replay of the tail — reproduces the sample family
	// bit-identically.
	Seed int64
}

// BatchStats reports what one applied batch changed.
type BatchStats struct {
	// Rows is the number of rows appended to the base data.
	Rows int
	// ReservoirSwaps counts overall-sample slots replaced by batch rows.
	ReservoirSwaps int
	// SmallGroupInserts counts rows added to small group (and pair) tables.
	SmallGroupInserts int
	// Drift is the drift gauge after the batch (see Online.Drift).
	Drift float64
	// DataGeneration is the published data generation after the batch.
	DataGeneration uint64
}

// TailBatch is a batch ingested while a rebuild was running, to be re-applied
// onto the freshly built state (see Rebase).
type TailBatch struct {
	Seq  uint64
	Rows [][]engine.Value
}

// NewOnline attaches online maintenance to the prepared state registered
// under strategy. The system's current database must hold every row the
// samples were built from (for snapshot-restored states: the regenerated base
// and the checkpoint's delta, with the WAL replayed on top via Apply).
// Construction scans the base once to seed the rare-value frequency counts
// and the watch on the columns pre-processing removed from S for having no
// small groups.
//
// Online maintenance supports the paper's default configuration: the
// two-level hierarchy and the uniform reservoir overall sample. Multi-level
// bands and weighted overall builders must use full rebuilds instead.
func NewOnline(sys *System, strategy string, cfg OnlineConfig) (*Online, error) {
	prep, ok := sys.Prepared(strategy)
	if !ok {
		return nil, fmt.Errorf("core: strategy %q not registered", strategy)
	}
	sgp := prep.(*smallGroupPrepared)
	t := cfg.SmallGroupFraction
	if t <= 0 {
		t = sgp.cfg.SmallGroupFraction
	}
	if t <= 0 || t > 1 {
		return nil, fmt.Errorf("core: online maintenance needs a small group fraction in (0,1], got %g", t)
	}
	db, gen := sys.Data()
	fam, err := newFamily(sgp, db, db, sgp.dataGen, maxTrackedPerColumn)
	if err != nil {
		return nil, err
	}
	app, err := engine.NewAppender(db)
	if err != nil {
		return nil, err
	}
	return &Online{sys: sys, strategy: strategy, app: app, seed: cfg.Seed, gen: gen, t: t, family: fam}, nil
}

// newFamily checks that p is a family online maintenance supports — the
// two-level hierarchy, a uniform reservoir overall sample, every sample row
// the fact table's columns and nothing else — and builds its maintenance
// state at sample generation sampleGen. live is the newest database: the
// mask source is bound and the rare-value counts seeded against it. pinned
// is the database p was pre-processed from (live itself unless batches
// arrived since): it gives the reservoir's stream length and the values the
// columns left out of S held.
func newFamily(p *smallGroupPrepared, live, pinned *engine.Database, sampleGen uint64, maxTracked int) (*family, error) {
	if len(p.cfg.Levels) > 1 {
		return nil, fmt.Errorf("core: online maintenance does not support the multi-level hierarchy")
	}
	if live.NumRows() < int(p.meta.BaseRows) {
		return nil, fmt.Errorf("core: the family was built over %d rows, the database holds %d", p.meta.BaseRows, live.NumRows())
	}
	for _, s := range p.samples() {
		switch tbl := s.src.Fact; {
		case tbl.Column(engine.WeightColumn) != nil:
			return nil, fmt.Errorf("core: online maintenance does not support weighted sample table %q", tbl.Name)
		case tbl.NumCols() != live.Fact.NumCols():
			return nil, fmt.Errorf("core: sample table %q has %d columns, the fact table %d", tbl.Name, tbl.NumCols(), live.Fact.NumCols())
		}
	}
	if p.overall.rows() == 0 {
		return nil, fmt.Errorf("core: empty overall sample")
	}
	f := &family{p: p, cap: int(p.overall.rows()), seen: int64(pinned.NumRows()), sampleGen: sampleGen, maxTracked: maxTracked}
	var err error
	if f.split, err = metaSplit(p.meta, live); err != nil {
		return nil, err
	}
	if err := f.seedFrequencies(live); err != nil {
		return nil, err
	}
	if err := f.seedMissing(pinned); err != nil {
		return nil, err
	}
	return f, f.missing.Grow(live)
}

// seedFrequencies counts, per column of S, the occurrences of every value
// outside the frozen L(C) in db.
func (f *family) seedFrequencies(db *engine.Database) error {
	cols := f.p.meta.Columns()
	names := make([]string, len(cols))
	// A column with more than maxTracked + |L(C)| distinct values has more
	// than maxTracked outside L(C): it saturates whatever the counts are.
	maxCommon := 0
	for i, cm := range cols {
		names[i], maxCommon = cm.Column, max(maxCommon, len(cm.Common))
	}
	freqs, err := db.ColumnFrequencies(names, f.maxTracked+maxCommon, f.p.cfg.Workers)
	if err != nil {
		return err
	}
	f.freqs, f.saturated = make([]map[engine.Value]int64, len(cols)), make([]bool, len(cols))
	for i, cf := range freqs {
		counts := cf.Counts()
		freq := make(map[engine.Value]int64, max(len(counts)-len(cols[i].Common), 0))
		for _, vc := range counts {
			if _, ok := cols[i].Common[vc.Value]; !ok {
				freq[vc.Value] = vc.Count
			}
		}
		if f.saturated[i] = cf.Over || len(freq) > f.maxTracked; !f.saturated[i] {
			f.freqs[i] = freq
			for _, c := range freq {
				f.maxRareCount = max(f.maxRareCount, c)
			}
		}
	}
	return nil
}

// seedMissing builds the watch on every view column outside S whose distinct
// count in db, the database the family was pre-processed from, is within the
// family's τ: a value such a column never held in db is in the unseen class,
// the only one with a bit.
func (f *family) seedMissing(db *engine.Database) error {
	var names []string
	for _, name := range db.Columns() {
		if _, inS := f.p.meta.Column(name); !inS {
			names = append(names, name)
		}
	}
	freqs, err := db.ColumnFrequencies(names, f.p.cfg.DistinctLimit, f.p.cfg.Workers)
	if err != nil {
		return err
	}
	var watched []*engine.ColumnClasses
	for _, cf := range freqs {
		if !cf.Over { // else τ-excluded: a rebuild would drop this column too
			watched = append(watched, cf.Classify(func(engine.Value) int8 { return -1 }, 0))
		}
	}
	f.missing = engine.NewRowClassifier(watched, false)
	return nil
}

// DataGeneration returns the data generation of the newest applied batch.
func (o *Online) DataGeneration() uint64 { return o.gen }

// Validate checks a batch against the view schema without applying it. The
// ingest coordinator calls it before a batch is acknowledged to the WAL.
func (o *Online) Validate(rows [][]engine.Value) error { return o.app.Validate(rows) }

// Drift returns the drift gauge: the heaviest rare value's total count as a
// fraction of the t·N small-group threshold. Crossing 1 means some value the
// frozen metadata files under "rare" now carries enough mass that
// pre-processing would declare it common — time to rebuild. The gauge also
// floors at 1 once a brand-new value arrives in a column pre-processing
// removed from S for having no small groups: that group cannot be captured
// without a rebuild re-admitting the column. +Inf when value tracking
// saturated (see maxTrackedPerColumn).
func (o *Online) Drift() float64 {
	if slices.Contains(o.saturated, true) {
		return math.Inf(1)
	}
	d := float64(o.maxRareCount) / (o.t * float64(o.app.DB().NumRows()))
	if o.missingNew > 0 {
		d = max(d, 1)
	}
	return d
}

// Apply appends one ingest batch (rows in view column order) as data
// generation seq, which must be exactly DataGeneration()+1. The base data
// always grows; the sample family is updated only when seq exceeds the
// sample generation — batches at or below it are already baked into a
// snapshot-restored family, so replay re-applies them to the regenerated
// base only, while still burning the same reservoir draws and frequency
// counts to stay bit-identical with a never-restored run. The new database
// and sample versions are published to the System before Apply returns.
func (o *Online) Apply(seq uint64, rows [][]engine.Value) (BatchStats, error) {
	var st BatchStats
	if seq != o.gen+1 {
		return st, fmt.Errorf("core: online apply out of order: batch %d after generation %d", seq, o.gen)
	}
	newDB, err := o.app.Append(rows)
	if err != nil {
		return st, err
	}
	if err := errors.Join(o.split.grow(newDB), o.missing.Grow(newDB)); err != nil {
		return st, err
	}
	lo := int(o.seen)
	perTable, victims := o.classify(newDB, len(rows), randx.New(batchSeed(o.seed, seq)), true)

	np := *o.p
	np.db, np.dims = newDB, newDB.Dims
	if seq > o.sampleGen {
		o.applySampleUpdates(&np, lo, perTable, victims, &st)
		np.overallScale = float64(newDB.NumRows()) / float64(o.cap)
		o.sampleGen = seq
	}
	o.gen = seq
	np.dataGen = o.sampleGen
	o.p = &np
	// Prepared state first, data generation second: handleQuery reads the
	// generation before answering and promises the answer covers at least
	// every batch up to it, so the state that answers must never lag the
	// generation a concurrent reader can observe. np is a version of a
	// registered family, bound already: the swap binds nothing, so it cannot
	// fail.
	_, _ = o.sys.SwapPrepared(o.strategy, &np)
	o.sys.SwapData(newDB, o.gen)

	st.Rows, st.Drift, st.DataGeneration = len(rows), o.Drift(), o.gen
	return st, nil
}

// batchSeed derives the per-batch reservoir seed from the configured seed
// and the batch sequence number (a splitmix64 finalizer over a golden-ratio
// stride, so consecutive sequences land on uncorrelated streams). It is part
// of the WAL's durability contract: changing it changes which rows the
// reservoir keeps when a checkpointed restart replays a log tail.
func batchSeed(seed int64, seq uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*seq
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// reservoirHit records one accepted reservoir replacement: batch row ri
// replaces overall-sample slot.
type reservoirHit struct {
	slot int
	ri   int
}

// classify finds the small group tables each of a batch's n rows, rows
// [seen, seen+n) of db, enters (perTable: the batch rows of each, by table
// index), counts the new values of still-dropped columns, and draws the
// reservoir decisions from rng; with bumpFreqs it also bumps the rare-value
// frequency counts, row by row. Apply bumps; Rebase's tail replay does not, because rebased counts
// were seeded from the full current database, tail rows included (the
// missing-column watch was seeded from the pinned rebuild database, which
// excludes the tail, so it counts either way). The family's classifiers must
// be bound to db or a later version. It mutates only tracking state (freqs,
// seen, missingNew), never sample tables.
func (f *family) classify(db *engine.Database, n int, rng *rand.Rand, bumpFreqs bool) (perTable map[int][]int, victims []reservoirHit) {
	lo, w, mw, cols := int(f.seen), maskWords(f.p.meta.Width()), f.missing.Words(), f.p.meta.Columns()
	words := make([]uint64, n*max(w, mw)) // the watch's verdicts, then the masks
	f.missing.BlockBits(lo, n, words)
	for _, word := range words[:n*mw] {
		f.missingNew += int64(bits.OnesCount64(word))
	}
	words = words[:n*w]
	f.split.masks(lo, n, words)
	// A column's reader is made at its first rare value in the batch; small
	// keeps up to 16 of them off the heap.
	var small [16]engine.ColumnAccessor
	vals := append(small[:0], make([]engine.ColumnAccessor, len(cols))...)
	perTable = make(map[int][]int)
	for ri := range n {
		m := words[ri*w:][:w]
		for ci, cm := range cols {
			if !bumpFreqs || f.saturated[ci] || !bitSet(m, cm.Index) {
				continue
			}
			if vals[ci] == nil {
				vals[ci], _ = db.Accessor(cm.Column) // metaSplit bound the column
			}
			// A value new to a column that tracks maxTracked saturates it.
			v, freq := vals[ci].Value(lo+ri), f.freqs[ci]
			if c := freq[v] + 1; c > 1 || len(freq) < f.maxTracked {
				freq[v], f.maxRareCount = c, max(f.maxRareCount, c)
			} else {
				f.saturated[ci], f.freqs[ci] = true, nil
			}
		}
		eachBit(m, func(i int) { perTable[i] = append(perTable[i], ri) })
		// Continued Algorithm R: replace slot j with probability cap/seen.
		f.seen++
		if j := rng.Int63n(f.seen); j < int64(f.cap) {
			victims = append(victims, reservoirHit{slot: int(j), ri: ri})
		}
	}
	return perTable, victims
}

// applySampleUpdates materialises the classified batch, rows [lo, lo+n) of
// np.db, into copy-on-write versions of the affected sample tables. A sample
// row is the base row's fact values, foreign keys included (the appender
// resolved them). An insert appends one to a small group table's fact
// slice; a swap overwrites an overall sample slot with one. Each slice changed is joined again to np.db's dimension tables, which
// may have grown, and every slice the batch did not touch keeps its join.
// Either touches the chunks the row sits in and shares every other with the
// published version.
func (f *family) applySampleUpdates(np *smallGroupPrepared, lo int, perTable map[int][]int, victims []reservoirHit, st *BatchStats) {
	var buf []engine.Value
	row := func(ri int) []engine.Value {
		buf = buf[:0]
		for _, c := range np.db.Fact.Columns() {
			buf = append(buf, c.Value(lo+ri))
		}
		return buf
	}
	rejoin := func(s sampleSource, fact *engine.Table) sampleSource {
		return sampleSource{src: s.src.Rejoin(fact, np.db.Dims...), name: s.name}
	}
	if len(perTable) > 0 {
		np.tables = append([]sampleSource(nil), f.p.tables...)
		for ix, list := range perTable {
			fact := np.tables[ix].src.Fact.CloneForAppend()
			for _, ri := range list {
				fact.AppendRow(row(ri)...)
				st.SmallGroupInserts++
			}
			np.tables[ix] = rejoin(np.tables[ix], fact)
		}
	}
	if len(victims) > 0 {
		fact := f.p.overall.src.Fact.CloneForAppend()
		for _, v := range victims {
			// A slot replaced twice in one batch keeps the later row, exactly
			// as sequential per-row reservoir updates would.
			fact.SetRow(v.slot, row(v.ri)...)
			st.ReservoirSwaps++
		}
		np.overall = rejoin(f.p.overall, fact)
	}
}

// Rebase installs freshly rebuilt sample state p (pre-processed from the
// pinned database version at data generation rebuiltAt) and re-applies the
// sample-side updates of every batch ingested while the rebuild ran (the
// tail, seq ascending from rebuiltAt+1 through DataGeneration()). Tail rows
// are already in the base data — Apply ran live during the rebuild — so only
// their reservoir offers and small-group inserts are replayed, against the
// new metadata. Frequency tracking is re-seeded from the current database
// with the new common sets, which resets the drift gauge. The rebased state
// is published before Rebase returns.
//
// The rebased family's state is built aside and replaces the served one's
// only when the whole tail has replayed onto it: a Rebase that fails leaves
// the Online exactly as it was, still maintaining the published family.
func (o *Online) Rebase(p Prepared, rebuiltAt uint64, tail []TailBatch) error {
	sgp := p.(*smallGroupPrepared)
	if sgp.db == nil {
		return fmt.Errorf("core: online rebase needs state pre-processed from live data")
	}
	np := *sgp
	np.db = o.app.DB()
	np.dims = np.db.Dims
	// The missing-column watch, unlike the frequency counts, is seeded from
	// the pinned rebuild database: a new value a tail row introduces into a
	// still-dropped column must keep the drift gauge floored, and classify
	// counts it during the tail replay below.
	f, err := newFamily(&np, np.db, sgp.db, rebuiltAt, o.maxTracked)
	if err != nil {
		return fmt.Errorf("core: online rebase: %w", err)
	}
	if end := rebuiltAt + uint64(len(tail)); end != o.gen {
		return fmt.Errorf("core: rebase tail ends at batch %d, data generation is %d", end, o.gen)
	}
	for _, b := range tail {
		if b.Seq != f.sampleGen+1 {
			return fmt.Errorf("core: rebase tail out of order: batch %d after sample generation %d", b.Seq, f.sampleGen)
		}
		lo := int(f.seen)
		perTable, victims := f.classify(np.db, len(b.Rows), randx.New(batchSeed(o.seed, b.Seq)), false)
		f.applySampleUpdates(&np, lo, perTable, victims, new(BatchStats))
		f.sampleGen = b.Seq
	}
	np.overallScale = float64(np.db.NumRows()) / float64(f.cap)
	np.dataGen = f.sampleGen
	o.family = f
	_, _ = o.sys.SwapPrepared(o.strategy, &np) // built over live data: bound, as in Apply
	return nil
}
