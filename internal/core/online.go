package core

import (
	"fmt"
	"math"
	"math/rand"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// Online sample maintenance: the ingest subsystem's bridge into small group
// sampling. The paper builds its sample family in an offline pre-processing
// phase and leaves maintenance under updates open; Online closes that gap by
// keeping the family statistically valid as rows stream in, WITHOUT touching
// the frozen pre-processing decisions:
//
//   - The uniform overall sample continues as a reservoir (Vitter's
//     Algorithm R) of fixed capacity k over the growing stream: each new row
//     replaces a random slot with probability k/N, so after any number of
//     appends the overall sample is still a uniform k-of-N sample, and the
//     runtime scale factor N/k is updated per batch.
//   - A new row whose value in column C lies outside the frozen common set
//     L(C) is appended, completely, to C's small group table with the
//     correct membership bitmask, so rare groups keep their exact answers.
//     Values never seen before are outside L(C) by definition and therefore
//     captured exactly from their first occurrence.
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
// version of the family, the reservoir's position in the stream, and the
// value tracking seeded from the family's metadata.
type family struct {
	p *smallGroupPrepared

	// Reservoir continuation state for the overall sample.
	cap  int   // reservoir capacity = overall sample rows (fixed until rebuild)
	seen int64 // stream length offered so far (= base rows)

	sampleGen uint64 // batches whose rows are represented in the sample family

	maxTracked int // per-column cap on tracked rare values

	colPos  []int    // per meta column: position in the view column order
	pairPos [][2]int // per pair: view positions of both columns
	// pairColCommon tests, per pair side, whether a value is common in that
	// column (a pair column outside S has every value common).
	pairColCommon [][2]func(engine.Value) bool

	// freqs counts, per meta column, total occurrences of each value outside
	// the frozen L(C); maxRareCount is the running maximum over all of them.
	freqs        []map[engine.Value]int64
	saturated    []bool
	maxRareCount int64

	// Columns pre-processing removed from S for having NO small groups
	// (§4.2.1: every value common) are tracked by value set: a brand-new
	// value in one of them IS a small group, but no table exists to insert
	// it into, so the only correct response is a rebuild that re-admits the
	// column to S. missingNew counts batch rows carrying such a value;
	// any makes Drift report at least 1. τ-excluded columns (distinct count
	// beyond DistinctLimit) are not tracked — a rebuild would drop them too.
	missingPos  []int
	missingVals []map[engine.Value]struct{}
	missingNew  int64
}

// OnlineConfig parameterises online maintenance.
type OnlineConfig struct {
	// SmallGroupFraction is t for the drift threshold t·N. Zero falls back
	// to the prepared state's configured fraction; states restored from disk
	// do not carry it, so the caller must supply it then.
	SmallGroupFraction float64
	// Seed drives the continued reservoir. Each batch's draws are derived
	// from (Seed, batch sequence), so replaying any suffix of the batch
	// sequence with the same seed — a full replay from birth or a
	// checkpointed replay of the tail — reproduces the sample family
	// bit-identically.
	Seed int64
	// MaxTrackedPerColumn caps each column's rare-value frequency map. When
	// a column exceeds it (a flood of brand-new distinct values), tracking
	// saturates and Drift reports +Inf: the right response is a rebuild,
	// whose scan-1 either re-splits the column or drops it from S via the
	// τ cutoff. Zero means 4·DefaultDistinctLimit.
	MaxTrackedPerColumn int
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
// under strategy. The system's current database must be the base data the
// samples were built from (for snapshot-restored states: the regenerated
// base, with the WAL replayed on top via Apply). Construction scans the base
// once to seed the rare-value frequency counts and the value sets of the
// columns pre-processing removed from S for having no small groups.
//
// Online maintenance supports the paper's default configuration: flat join
// synopses, the two-level hierarchy, and the uniform reservoir overall
// sample. Renormalized storage, multi-level bands and weighted overall
// builders must use full rebuilds instead.
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
	maxTracked := cfg.MaxTrackedPerColumn
	if maxTracked <= 0 {
		maxTracked = 4 * DefaultDistinctLimit
	}

	db, gen := sys.Data()
	fam, err := newFamily(sgp, db, db, sgp.dataGen, maxTracked)
	if err != nil {
		return nil, err
	}
	app, err := engine.NewAppender(db)
	if err != nil {
		return nil, err
	}
	return &Online{sys: sys, strategy: strategy, app: app, seed: cfg.Seed, gen: gen, t: t, family: fam}, nil
}

// newFamily checks that p is a family online maintenance supports — flat
// join synopses, the two-level hierarchy, a uniform reservoir overall sample,
// every sample row the view's columns and then its mask words — and builds
// its maintenance state at sample generation sampleGen. live is the newest
// database: columns are bound and the rare-value counts seeded against it.
// pinned is the database p was pre-processed from (live itself unless
// batches arrived since): it gives the reservoir's stream length and the
// value sets of the columns left out of S.
func newFamily(p *smallGroupPrepared, live, pinned *engine.Database, sampleGen uint64, maxTracked int) (*family, error) {
	if len(p.cfg.Levels) > 1 {
		return nil, fmt.Errorf("core: online maintenance does not support the multi-level hierarchy")
	}
	arity := len(live.Columns()) + maskWords(p.meta.Width())
	for _, s := range append(p.tables[:len(p.tables):len(p.tables)], p.overall) {
		tbl, ok := s.src.(*engine.Table)
		switch {
		case !ok:
			return nil, fmt.Errorf("core: online maintenance does not support renormalized sample storage")
		case tbl.Column(engine.WeightColumn) != nil:
			return nil, fmt.Errorf("core: online maintenance does not support weighted sample table %q", s.name)
		case tbl.NumCols() != arity:
			return nil, fmt.Errorf("core: sample table %q has %d columns, the view and the mask words make %d", s.name, tbl.NumCols(), arity)
		}
	}
	if p.overall.rows() == 0 {
		return nil, fmt.Errorf("core: empty overall sample")
	}
	f := &family{p: p, cap: int(p.overall.rows()), seen: int64(pinned.NumRows()), sampleGen: sampleGen, maxTracked: maxTracked}
	if err := f.bindMeta(live); err != nil {
		return nil, err
	}
	if err := f.seedFrequencies(live); err != nil {
		return nil, err
	}
	if err := f.seedMissing(pinned); err != nil {
		return nil, err
	}
	return f, nil
}

// bindMeta resolves the metadata's columns against the view column order.
func (f *family) bindMeta(db *engine.Database) error {
	meta := f.p.meta
	view := db.Columns()
	pos := make(map[string]int, len(view))
	for i, n := range view {
		pos[n] = i
	}
	for _, cm := range meta.Columns() {
		p, ok := pos[cm.Column]
		if !ok {
			return fmt.Errorf("core: metadata column %q missing from database view", cm.Column)
		}
		f.colPos = append(f.colPos, p)
	}
	for _, pm := range meta.Pairs() {
		var pp [2]int
		var commons [2]func(engine.Value) bool
		for side, col := range pm.Cols {
			p, ok := pos[col]
			if !ok {
				return fmt.Errorf("core: pair column %q missing from database view", col)
			}
			pp[side] = p
			if cm, inS := meta.Column(col); inS {
				common := cm.Common
				commons[side] = func(v engine.Value) bool { _, ok := common[v]; return ok }
			} else {
				commons[side] = func(engine.Value) bool { return true }
			}
		}
		f.pairPos = append(f.pairPos, pp)
		f.pairColCommon = append(f.pairColCommon, commons)
	}
	return nil
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
		names[i] = cm.Column
		if len(cm.Common) > maxCommon {
			maxCommon = len(cm.Common)
		}
	}
	freqs, err := db.ColumnFrequencies(names, f.maxTracked+maxCommon, f.p.cfg.Workers)
	if err != nil {
		return err
	}
	f.freqs = make([]map[engine.Value]int64, len(cols))
	f.saturated = make([]bool, len(cols))
	for i, cf := range freqs {
		freq := make(map[engine.Value]int64)
		for _, vc := range cf.Counts() {
			if _, ok := cols[i].Common[vc.Value]; !ok {
				freq[vc.Value] = vc.Count
			}
		}
		if cf.Over || len(freq) > f.maxTracked {
			f.saturated[i] = true
			continue
		}
		f.freqs[i] = freq
		for _, c := range freq {
			if c > f.maxRareCount {
				f.maxRareCount = c
			}
		}
	}
	return nil
}

// seedMissing builds, for every view column outside S whose distinct count
// is within the τ cutoff, the set of values present in db. These are the
// columns pre-processing removed from S for having no small groups; a value
// never seen in one of them is a small group the frozen family cannot
// represent (there is no table to insert into), so trackMissing floors the
// drift gauge at 1 the moment one arrives.
func (f *family) seedMissing(db *engine.Database) error {
	meta := f.p.meta
	lim := f.p.cfg.DistinctLimit
	if lim <= 0 {
		lim = DefaultDistinctLimit
	}
	var pos []int
	var names []string
	for i, name := range db.Columns() {
		if _, inS := meta.Column(name); !inS {
			pos = append(pos, i)
			names = append(names, name)
		}
	}
	freqs, err := db.ColumnFrequencies(names, lim, f.p.cfg.Workers)
	if err != nil {
		return err
	}
	for i, cf := range freqs {
		if cf.Over {
			continue // τ-excluded: a rebuild would drop this column too
		}
		set := make(map[engine.Value]struct{})
		for _, vc := range cf.Counts() {
			set[vc.Value] = struct{}{}
		}
		f.missingPos = append(f.missingPos, pos[i])
		f.missingVals = append(f.missingVals, set)
	}
	return nil
}

// trackMissing counts batch rows whose value in a tracked no-small-groups
// column was never seen at pre-processing time.
func (f *family) trackMissing(rows [][]engine.Value) {
	for i, p := range f.missingPos {
		set := f.missingVals[i]
		for _, row := range rows {
			if _, ok := set[row[p]]; !ok {
				f.missingNew++
			}
		}
	}
}

// DataGeneration returns the data generation of the newest applied batch.
func (o *Online) DataGeneration() uint64 { return o.gen }

// SampleGeneration returns the generation baked into the sample family.
func (o *Online) SampleGeneration() uint64 { return o.sampleGen }

// DB returns the newest database version.
func (o *Online) DB() *engine.Database { return o.app.DB() }

// Prepared returns the newest maintained sample state.
func (o *Online) Prepared() Prepared { return o.p }

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
// saturated (see OnlineConfig.MaxTrackedPerColumn).
func (o *Online) Drift() float64 {
	for _, s := range o.saturated {
		if s {
			return math.Inf(1)
		}
	}
	var d float64
	if n := o.app.DB().NumRows(); n > 0 && o.maxRareCount > 0 {
		d = float64(o.maxRareCount) / (o.t * float64(n))
	}
	if o.missingNew > 0 && d < 1 {
		d = 1
	}
	return d
}

// Apply appends one ingest batch (rows in view column order) as data
// generation seq, which must be exactly DataGeneration()+1. The base data
// always grows; the sample family is updated only when seq exceeds
// SampleGeneration() — batches at or below it are already baked into a
// snapshot-restored family, so replay re-applies them to the regenerated
// base only, while still burning the same reservoir draws and frequency
// counts to stay bit-identical with a never-restored run. The new database
// and sample versions are published to the System before Apply returns.
func (o *Online) Apply(seq uint64, rows [][]engine.Value) (BatchStats, error) {
	var st BatchStats
	if seq != o.gen+1 {
		return st, fmt.Errorf("core: online apply out of order: batch %d after generation %d", seq, o.gen)
	}
	updateSamples := seq > o.sampleGen
	newDB, err := o.app.Append(rows)
	if err != nil {
		return st, err
	}

	words, perTable, victims := o.classify(rows, randx.New(batchSeed(o.seed, seq)), true)

	np := *o.p
	np.db = newDB
	if updateSamples {
		o.applySampleUpdates(&np, rows, words, perTable, victims, &st)
		np.overallScale = float64(newDB.NumRows()) / float64(o.cap)
		o.sampleGen = seq
	}
	o.gen = seq
	np.dataGen = o.sampleGen
	o.p = &np
	// Prepared state first, data generation second: handleQuery reads the
	// generation before answering and promises the answer covers at least
	// every batch up to it, so the state that answers must never lag the
	// generation a concurrent reader can observe.
	o.sys.SwapPrepared(o.strategy, &np)
	o.sys.SwapData(newDB, o.gen)

	st.Rows = len(rows)
	st.Drift = o.Drift()
	st.DataGeneration = o.gen
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

// classify computes each batch row's membership mask (row ri's words are
// words[ri*w:][:w], w words to a row), tracks values of still-dropped
// columns, and draws the reservoir decisions from rng; with bumpFreqs it also
// bumps the rare-value frequency counts. Apply bumps; Rebase's tail replay
// does not, because rebased counts were seeded from the full current
// database, tail rows included (the missing-column value sets were seeded
// from the pinned rebuild database, which excludes the tail, so that
// tracking runs either way). It mutates only tracking state (freqs, seen),
// never sample tables.
func (f *family) classify(rows [][]engine.Value, rng *rand.Rand, bumpFreqs bool) (words []uint64, perTable map[int][]int, victims []reservoirHit) {
	meta := f.p.meta
	w := maskWords(meta.Width())
	cols := meta.Columns()
	words = make([]uint64, len(rows)*w)
	perTable = make(map[int][]int)
	f.trackMissing(rows)
	for ri, row := range rows {
		m := words[ri*w:][:w]
		for ci, cm := range cols {
			v := row[f.colPos[ci]]
			if _, common := cm.Common[v]; common {
				continue
			}
			if bumpFreqs {
				f.bumpFreq(ci, v)
			}
			setBit(m, cm.Index)
			perTable[cm.Index] = append(perTable[cm.Index], ri)
		}
		for pi, pm := range meta.Pairs() {
			v0 := row[f.pairPos[pi][0]]
			v1 := row[f.pairPos[pi][1]]
			if !f.pairColCommon[pi][0](v0) || !f.pairColCommon[pi][1](v1) {
				continue
			}
			tuple := engine.EncodeKey([]engine.Value{v0, v1})
			if _, rare := pm.Rare[tuple]; rare {
				setBit(m, pm.Index)
				perTable[pm.Index] = append(perTable[pm.Index], ri)
			}
		}
		// Continued Algorithm R: replace slot j with probability cap/seen.
		f.seen++
		if j := rng.Int63n(f.seen); j < int64(f.cap) {
			victims = append(victims, reservoirHit{slot: int(j), ri: ri})
		}
	}
	return words, perTable, victims
}

func (f *family) bumpFreq(ci int, v engine.Value) {
	if f.saturated[ci] {
		return
	}
	freq := f.freqs[ci]
	c := freq[v] + 1
	if c == 1 && len(freq) >= f.maxTracked {
		f.saturated[ci] = true
		f.freqs[ci] = nil
		return
	}
	freq[v] = c
	if c > f.maxRareCount {
		f.maxRareCount = c
	}
}

// applySampleUpdates materialises the classified batch into copy-on-write
// versions of the affected sample tables. An insert is a row appended, a swap
// a row overwritten: the row a sample table stores is the batch row's values
// and then its mask words, so either touches the chunks the row sits in and
// shares every other with the published version.
func (f *family) applySampleUpdates(np *smallGroupPrepared, rows [][]engine.Value, words []uint64, perTable map[int][]int, victims []reservoirHit, st *BatchStats) {
	w := maskWords(f.p.meta.Width())
	var buf []engine.Value
	sampleRow := func(ri int) []engine.Value {
		buf = append(buf[:0], rows[ri]...)
		for _, word := range words[ri*w:][:w] {
			buf = append(buf, engine.IntVal(int64(word)))
		}
		return buf
	}
	if len(perTable) > 0 {
		np.tables = append([]sampleSource(nil), f.p.tables...)
		for ix, list := range perTable {
			tbl := np.tables[ix].src.(*engine.Table).CloneForAppend()
			for _, ri := range list {
				tbl.AppendRow(sampleRow(ri)...)
				st.SmallGroupInserts++
			}
			np.tables[ix] = sampleSource{src: tbl, name: np.tables[ix].name}
		}
	}
	if len(victims) > 0 {
		ot := f.p.overall.src.(*engine.Table).CloneForAppend()
		for _, v := range victims {
			// A slot replaced twice in one batch keeps the later row, exactly
			// as sequential per-row reservoir updates would.
			ot.SetRow(v.slot, sampleRow(v.ri)...)
			st.ReservoirSwaps++
		}
		np.overall = sampleSource{src: ot, name: f.p.overall.name}
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
	// Missing-column value sets, unlike the frequency counts, are seeded
	// from the pinned rebuild database: a new value a tail row introduces
	// into a still-dropped column must keep the drift gauge floored, and
	// classify bumps it during the tail replay below.
	f, err := newFamily(&np, np.db, sgp.db, rebuiltAt, o.maxTracked)
	if err != nil {
		return fmt.Errorf("core: online rebase: %w", err)
	}
	for _, b := range tail {
		if b.Seq != f.sampleGen+1 {
			return fmt.Errorf("core: rebase tail out of order: batch %d after sample generation %d", b.Seq, f.sampleGen)
		}
		if b.Seq > o.gen {
			return fmt.Errorf("core: rebase tail batch %d beyond data generation %d", b.Seq, o.gen)
		}
		words, perTable, victims := f.classify(b.Rows, randx.New(batchSeed(o.seed, b.Seq)), false)
		var st BatchStats
		f.applySampleUpdates(&np, b.Rows, words, perTable, victims, &st)
		f.sampleGen = b.Seq
	}
	if f.sampleGen != o.gen {
		return fmt.Errorf("core: rebase tail ends at batch %d, data generation is %d", f.sampleGen, o.gen)
	}
	np.overallScale = float64(np.db.NumRows()) / float64(f.cap)
	np.dataGen = f.sampleGen
	o.family = f
	o.sys.SwapPrepared(o.strategy, &np)
	return nil
}
