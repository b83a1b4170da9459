package core

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"dynsample/internal/bitmask"
	"dynsample/internal/engine"
	"dynsample/internal/parallel"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
)

// DefaultDistinctLimit is τ, the distinct-value cutoff above which a column
// is dropped from S during the first pre-processing pass ("we set [it] to
// 5000 in our experiments", §4.2.1).
const DefaultDistinctLimit = 5000

// DefaultConfidenceLevel is the nominal coverage of reported intervals.
const DefaultConfidenceLevel = 0.95

// DefaultScanRowsPerSecond is the conservative scan-throughput estimate the
// deadline degradation rule uses when SmallGroupConfig.ScanRowsPerSecond is
// unset (including sample sets restored from disk, whose serialised form
// does not carry this machine-local figure). It sits below what the block
// kernel measures on the repo benchmark at one worker — 19–24 ns per sample
// row, 10–20 ns per base row, i.e. 40–100 million rows per second — so it
// errs low: degradation is slightly more eager, never an answer slower.
// (Against the row-at-a-time kernel it replaced, 97–139 ns per row, the
// same figure was 2–3x optimistic.)
const DefaultScanRowsPerSecond = 25e6

// OverallBuilder selects the rows of the overall sample. The default is a
// uniform reservoir sample, but §4.2.1 notes the overall sample is pluggable:
// "it is also possible to use a non-uniform sampling technique ... for
// example, we use outlier indexing to construct the overall sample". Every
// baseline is such a selector plugged into a family with S empty. A builder
// gets the unrounded base rate, draws with its own seed, and may return its
// rows in any order: pre-processing puts them, with their weights, into
// base-row order. A non-uniform builder returns per-row weights (inverse
// sampling rates); weights may be nil for a uniform sample, in which case
// the runtime scales by N/len(rows) (overallScale).
type OverallBuilder interface {
	BuildOverall(db *engine.Database, rate float64) (rows []int, weights []float64, err error)
}

// HierarchyLevel is one band of the multi-level group-size hierarchy
// extension (§4.2.3: "one could sample 100% of rows from small groups, 10%
// of rows from 'medium-sized' groups, and 1% of rows from large groups").
// A column value belongs to the first level whose MaxFraction bound covers
// its cumulative tail mass; its rows enter the column's small group table
// sampled at Rate (with weight 1/Rate).
type HierarchyLevel struct {
	// MaxFraction bounds the cumulative tail mass (as a fraction of the
	// database) covered by this and all rarer levels.
	MaxFraction float64
	// Rate is the sampling rate for rows in this band; the first level must
	// use rate 1 so the smallest groups stay exact.
	Rate float64
}

// SmallGroupConfig parameterises small group sampling pre-processing.
type SmallGroupConfig struct {
	// BaseRate is r, the overall sample size as a fraction of the database.
	BaseRate float64
	// SmallGroupFraction is t, the maximum size of each small group table as
	// a fraction of the database. Zero means 0.5·BaseRate, the sampling
	// allocation ratio γ=0.5 recommended by the analysis of §4.4.
	SmallGroupFraction float64
	// DistinctLimit is τ; zero means DefaultDistinctLimit.
	DistinctLimit int
	// Columns restricts the candidate column set S (workload-based trimming,
	// §4.2.3). Nil means every view column; an empty list means none, the
	// family a baseline builds: its overall sample alone.
	Columns []string
	// MaxTablesPerQuery, when positive, caps how many small group tables a
	// single query may read (the runtime heuristic suggested in §4.2.3).
	// Tables covering the most rare rows are preferred.
	MaxTablesPerQuery int
	// Levels enables the multi-level hierarchy extension. Nil means the
	// paper's default two-level scheme: one band at fraction
	// SmallGroupFraction, rate 1.
	Levels []HierarchyLevel
	// Pairs lists column pairs to build pair small group tables for
	// (§4.2.3 variation). A pair table stores, completely, the rows whose
	// value combination is rare while each value is individually common.
	Pairs [][2]string
	// Overall selects the overall sample's rows; nil means a uniform
	// reservoir sample drawn with Seed.
	Overall OverallBuilder
	// Renormalize stores samples as renormalized join synopses (§5.2.2):
	// fact slices joined to reduced dimension tables shared across all
	// sample tables, instead of fully flattened tables. Saves space on wide
	// star schemas at a small runtime join cost.
	Renormalize bool
	// Workers is the worker budget for both phases. Pre-processing fans out
	// the row-sharded frequency counts of scan 1, scan 2's row-sharded mask
	// pass and the materialisation of the small group tables across Workers
	// goroutines; at runtime the rewritten query's steps execute as parallel
	// tasks over partitioned scans (RewritePlan.Workers). Values below 1 mean
	// 1 (everything inline). Outputs are identical for every value: parallel
	// pre-processing partitions work whose results never depend on
	// completion order, and the one seeded generator is read on one
	// goroutine, in row order, by scan 2's replay of the masks.
	Workers int
	// Seed drives all randomness in pre-processing.
	Seed int64
	// ScanRowsPerSecond estimates runtime scan throughput for the deadline
	// degradation rule (AnswerCtx): a plan whose total sample rows exceed
	// remaining-budget × ScanRowsPerSecond falls back to the overall sample.
	// Zero means DefaultScanRowsPerSecond. Tests set it very low (force
	// degradation) or very high (forbid it) to make the rule deterministic.
	ScanRowsPerSecond float64
}

func (c SmallGroupConfig) withDefaults() SmallGroupConfig {
	if c.SmallGroupFraction == 0 {
		c.SmallGroupFraction = 0.5 * c.BaseRate
	}
	if c.DistinctLimit == 0 {
		c.DistinctLimit = DefaultDistinctLimit
	}
	if c.Levels == nil {
		c.Levels = []HierarchyLevel{{MaxFraction: c.SmallGroupFraction, Rate: 1}}
	}
	return c
}

func (c SmallGroupConfig) validate() error {
	if c.BaseRate <= 0 || c.BaseRate > 1 {
		return fmt.Errorf("smallgroup: base rate %g out of (0,1]", c.BaseRate)
	}
	if c.SmallGroupFraction < 0 || c.SmallGroupFraction > 1 {
		return fmt.Errorf("smallgroup: small group fraction %g out of [0,1]", c.SmallGroupFraction)
	}
	for i, l := range c.Levels {
		if l.MaxFraction <= 0 || l.MaxFraction > 1 {
			return fmt.Errorf("smallgroup: level %d fraction %g out of (0,1]", i, l.MaxFraction)
		}
		if l.Rate <= 0 || l.Rate > 1 {
			return fmt.Errorf("smallgroup: level %d rate %g out of (0,1]", i, l.Rate)
		}
		if i == 0 && l.Rate != 1 {
			return fmt.Errorf("smallgroup: first level must have rate 1 (smallest groups stay exact)")
		}
		if i > 0 {
			if l.MaxFraction <= c.Levels[i-1].MaxFraction {
				return fmt.Errorf("smallgroup: level fractions must increase")
			}
			if l.Rate >= c.Levels[i-1].Rate {
				return fmt.Errorf("smallgroup: level rates must decrease")
			}
		}
	}
	return nil
}

// SmallGroup is the small group sampling strategy (§4).
type SmallGroup struct {
	cfg SmallGroupConfig
}

// NewSmallGroup returns the strategy with the given configuration.
func NewSmallGroup(cfg SmallGroupConfig) *SmallGroup { return &SmallGroup{cfg: cfg} }

// Name implements Strategy.
func (s *SmallGroup) Name() string { return "smallgroup" }

// Preprocess implements the two-scan pre-processing algorithm of §4.2.1.
//
// Scan 1 counts the occurrences of each distinct value in every candidate
// column (dropping columns whose distinct count exceeds τ) and derives each
// column's common-value set L(C) — generalised, under the multi-level
// extension, to a band assignment per value. Scan 2 finds every row's small
// group tables, collects their row lists and draws the overall sample by
// reservoir sampling, all in one pass; materialisation then stores each row
// list as a sample table. Both scans run on the engine's typed kernel:
// dimension columns are counted and classified through the star join, never
// at fact-table length.
func (s *SmallGroup) Preprocess(db *engine.Database) (Prepared, error) {
	cfg := s.cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if db.NumRows() == 0 {
		return nil, fmt.Errorf("smallgroup: database %q is empty", db.Name)
	}
	phase := time.Now()
	split, err := countBands(db, cfg)
	if err != nil {
		return nil, err
	}
	phase = observePhase("count", phase)
	rows, err := split.classify(db, cfg)
	if err != nil {
		return nil, err
	}
	phase = observePhase("classify", phase)
	p, err := split.materialise(db, cfg, rows)
	if err != nil {
		return nil, err
	}
	observePhase("materialise", phase)
	return p, nil
}

// bandSplit is the outcome of scan 1: the metadata catalog and the per-row
// band lookups derived from the same frequencies. Online maintenance builds
// one from the metadata alone (metaSplit) and grows it with the data.
type bandSplit struct {
	meta  *Metadata
	bands []*engine.ColumnClasses // per column of S: the row's hierarchy level, -1 when common
	rare  *engine.RowClassifier   // bit i: the row belongs to column i's small group table
	pairs []*pairTester
}

// countBands is scan 1: per-column value frequencies with the τ cutoff
// ("once the number of distinct values for a column exceeds a threshold τ ...
// we remove that column from S and cease to maintain its counts").
func countBands(db *engine.Database, cfg SmallGroupConfig) (*bandSplit, error) {
	candidates := cfg.Columns
	if candidates == nil {
		candidates = db.Columns()
	}
	n := int64(db.NumRows())
	freqs, err := db.ColumnFrequencies(candidates, cfg.DistinctLimit, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("smallgroup: %w", err)
	}
	// Derive the band assignment per surviving column; drop columns with no
	// small groups ("It may be that a column C has no small groups, in which
	// case it is removed from S").
	var metas []ColumnMeta
	split := &bandSplit{}
	for _, f := range freqs {
		if cm, band, ok := deriveBands(f, n, cfg.Levels); ok {
			metas = append(metas, cm)
			split.bands = append(split.bands, band)
		}
	}
	split.meta = NewMetadata(n, metas)
	split.rare = engine.NewRowClassifier(split.bands, true)
	// Pair tables (§4.2.3 variation): tuple frequencies over rows where both
	// columns are individually common.
	split.pairs, err = buildPairs(db, split.meta, cfg, split.rare)
	return split, err
}

// metaSplit is the mask source of a family, built from its metadata over db
// and not from a count: a restored family was never counted in this process,
// and a column whose rare values outgrew their tracking has no complete
// count. A column's band is 0 (rare) for every value outside L(C), one db
// gains later included, and -1 for the values of L(C); a pair tests its rare
// tuples. db must hold every value of L(C).
func metaSplit(meta *Metadata, db *engine.Database) (*bandSplit, error) {
	split := &bandSplit{meta: meta}
	for _, cm := range meta.Columns() {
		v, err := db.View(cm.Column)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		split.bands = append(split.bands, v.Classes(cm.Common, -1, 0))
	}
	split.rare = engine.NewRowClassifier(split.bands, false)
	for _, pm := range meta.Pairs() {
		pt := newPairTester(meta, pm.Cols)
		pt.index, pt.rare = pm.Index, pm.Rare
		split.pairs = append(split.pairs, pt)
	}
	return split, split.grow(db)
}

// grow binds the split to db, the database its classes were built over or a
// later version of it.
func (split *bandSplit) grow(db *engine.Database) error {
	for _, pt := range split.pairs {
		if err := pt.bind(db); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return split.rare.Grow(db)
}

// sampleRows is the outcome of scan 2: the base rows each sample table
// stores.
type sampleRows struct {
	tables  [][]int     // per small group table, by index
	weights [][]float64 // per table; nil when every row is stored at rate 1
	overall []int
	// overallWeights is nil for the uniform reservoir sample, which scales
	// by N/len(overall) instead.
	overallWeights []float64
}

// classify is scan 2, a window of row shards at a time, in two parts. First
// a pass on the worker budget finds each row's mask and keeps, per shard, the
// rows that have a bit set, with their masks. Then this goroutine, the one
// seeded generator's only reader, walks the window's rows in order, so the
// draw order stays fixed: per row, one coin per medium-band bit in index
// order, then the reservoir offer. A window is 4·Workers shards, and its
// slots' buffers are reused by the next window, so what is kept between the
// parts is bounded by the window, never by the table. With cfg.Overall set
// there is no reservoir: the selection, sorted into base-row order, is the
// overall sample.
func (split *bandSplit) classify(db *engine.Database, cfg SmallGroupConfig) (*sampleRows, error) {
	n, width, words := db.NumRows(), split.meta.Width(), maskWords(split.meta.Width())
	shards := parallel.Shards(n, engine.ScanShardRows)
	window := make([]struct {
		rows  []int
		masks []uint64 // words per kept row
	}, min(len(shards), 4*max(cfg.Workers, 1)))

	rng := randx.New(cfg.Seed)
	var res *sample.Reservoir // the default overall sample; a cfg.Overall selection draws none
	if cfg.Overall == nil {
		res = sample.NewReservoir(max(1, int(cfg.BaseRate*float64(n))), rng)
	}
	out := &sampleRows{tables: make([][]int, width), weights: make([][]float64, width)}
	weighted := make([]bool, width)
	next := 0 // the next row to offer: every row before a kept one is offered before its coins
	// With S empty no row has a bit: the window pass is skipped.
	for lo := 0; width > 0 && lo < len(shards); lo += len(window) {
		slots := window[:min(len(window), len(shards)-lo)]
		parallel.ForEach(cfg.Workers, len(slots), func(s int) {
			k, masks := &slots[s], make([]uint64, maskRows*words)
			k.rows, k.masks = k.rows[:0], k.masks[:0]
			for b, hi := shards[lo+s].Lo, shards[lo+s].Hi; b < hi; b += maskRows {
				n := min(maskRows, hi-b)
				split.masks(b, n, masks)
				for j := range n {
					if mask := masks[j*words : (j+1)*words]; !bitmask.FromWords(width, mask).IsZero() {
						k.rows, k.masks = append(k.rows, b+j), append(k.masks, mask...)
					}
				}
			}
		})
		for _, k := range slots {
			for j, row := range k.rows {
				for ; res != nil && next < row; next++ {
					res.Offer(next)
				}
				eachBit(k.masks[j*words:(j+1)*words], func(i int) {
					if i >= len(split.bands) { // a pair table
						out.tables[i] = append(out.tables[i], row)
						return
					}
					rate := cfg.Levels[split.bands[i].Class(row)].Rate
					if rate < 1 {
						// Medium band: subsample at the level's rate; the bitmask
						// still marks the row so the overall sample filters it out.
						if rng.Float64() >= rate {
							return
						}
						weighted[i] = true
					}
					out.tables[i] = append(out.tables[i], row)
					out.weights[i] = append(out.weights[i], 1/rate)
				})
			}
		}
	}
	for ; res != nil && next < n; next++ {
		res.Offer(next)
	}
	for i := range out.weights {
		if !weighted[i] {
			out.weights[i] = nil
		}
	}

	if cfg.Overall == nil {
		out.overall = append([]int(nil), res.Items()...)
		sort.Ints(out.overall)
		return out, nil
	}
	var err error
	if out.overall, out.overallWeights, err = cfg.Overall.BuildOverall(db, cfg.BaseRate); err != nil {
		return nil, err
	}
	sort.Sort(rowOrder{out.overall, out.overallWeights})
	return out, nil
}

// rowOrder sorts a selection into base-row order, each weight with its row.
type rowOrder struct {
	rows    []int
	weights []float64 // nil, or one per row
}

func (o rowOrder) Len() int           { return len(o.rows) }
func (o rowOrder) Less(i, j int) bool { return o.rows[i] < o.rows[j] }
func (o rowOrder) Swap(i, j int) {
	o.rows[i], o.rows[j] = o.rows[j], o.rows[i]
	if o.weights != nil {
		o.weights[i], o.weights[j] = o.weights[j], o.weights[i]
	}
}

// overallScale is the factor the overall sample's rows count for: N/len(rows)
// for an unweighted sample, 1 when every row carries its own weight (its
// inverse inclusion probability).
func overallScale(n int, rows []int, weights []float64) float64 {
	if weights == nil {
		return float64(n) / float64(len(rows))
	}
	return 1
}

// materialise stores each row list as a sample table: flat join synopses by
// default, renormalized (§5.2.2 space optimisation) on request.
func (split *bandSplit) materialise(db *engine.Database, cfg SmallGroupConfig, rows *sampleRows) (*smallGroupPrepared, error) {
	meta, width := split.meta, split.meta.Width()
	p := &smallGroupPrepared{db: db, meta: meta, cfg: cfg, tables: make([]sampleSource, width),
		overallScale: overallScale(db.NumRows(), rows.overall, rows.overallWeights), pstats: &plannerStats{}}
	names := make([]string, width)
	for _, cm := range meta.Columns() {
		names[cm.Index] = "sg_" + cm.Column
	}
	for _, pm := range meta.Pairs() {
		names[pm.Index] = "sg_" + pm.Cols[0] + "__" + pm.Cols[1]
	}
	var renorm *engine.Renormalizer
	if cfg.Renormalize {
		all := append(append([][]int{}, rows.tables...), rows.overall)
		renorm = engine.NewRenormalizer(db, all...)
		p.sharedDims = renorm.ReducedDims()
	}

	// Fan the per-table builds (bitmask computation + materialisation) out
	// across workers: task i builds small group table i, the last task builds
	// the overall sample. Every input (row lists, the classifier, the base
	// data, the renormalizer's remap) is read-only by now, and each task
	// writes only its own slot, so the built tables are identical for any
	// worker count. Masks are computed for the sampled rows only.
	buildOne := func(i int) error {
		src := sampleSource{name: "sg_overall"}
		list, w := rows.overall, rows.overallWeights
		if i < width {
			src.name, list, w = names[i], rows.tables[i], rows.weights[i]
		}
		// One slab of words for the table: a row's mask is a window onto it.
		masks, words := make([]bitmask.Mask, len(list)), maskWords(width)
		slab := make([]uint64, len(list)*words)
		for j, r := range list {
			rowBits := slab[j*words : (j+1)*words : (j+1)*words]
			split.masks(r, 1, rowBits)
			masks[j] = bitmask.FromWords(width, rowBits)
		}
		if renorm != nil {
			rdb, err := renorm.Build(src.name, list, masks, w)
			if err != nil {
				return err
			}
			src.src = rdb
		} else {
			src.src = db.Flatten(src.name, list, masks, w)
		}
		if i < width {
			p.tables[i] = src
		} else {
			p.overall = src
		}
		return nil
	}
	if err := parallel.ForEachErr(cfg.Workers, width+1, buildOne); err != nil {
		return nil, err
	}
	return p, nil
}

// maskRows is how many rows' masks scan 2 finds in one call: a scan block's.
const maskRows = 1024

// masks overwrites dst with the membership masks of rows [lo, lo+n),
// maskWords(|S|) words a row, row lo+j's at dst[j·words:] — bit i: the row
// belongs to small group table i, single-column or pair. It only reads, so
// any goroutine may call it.
func (split *bandSplit) masks(lo, n int, dst []uint64) {
	split.rare.BlockBits(lo, n, dst)
	if len(split.pairs) == 0 {
		return // a mask is the single-column bits
	}
	// Spread the rows out from the single-column bits' stride to the mask's,
	// the last row first, so that none is written over before it is read.
	rw, words := split.rare.Words(), maskWords(split.meta.Width())
	for j := n - 1; j >= 0; j-- {
		row := dst[j*words : (j+1)*words]
		copy(row, dst[j*rw:(j+1)*rw])
		clear(row[rw:])
		for _, pt := range split.pairs {
			if pt.test(lo+j, row) {
				setBit(row, pt.index)
			}
		}
	}
}

// eachBit calls fn with the position of every set bit, ascending.
func eachBit(words []uint64, fn func(i int)) {
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			fn(w*64 + bits.TrailingZeros64(word))
		}
	}
}

// pairTester tests pair-table membership for one configured column pair.
type pairTester struct {
	index  int
	cols   [2]string
	a0, a1 engine.ColumnAccessor
	// s0, s1 are the pair columns' bit positions in S, or -1 for a column
	// outside S (every value common).
	s0, s1 int
	rare   map[engine.GroupKey]struct{}
}

// newPairTester returns the tester of a pair of columns, its bit positions
// in S taken from meta; the caller sets index and rare, and binds it.
func newPairTester(meta *Metadata, pair [2]string) *pairTester {
	pt := &pairTester{cols: pair, s0: -1, s1: -1}
	if i, ok := meta.Index(pair[0]); ok {
		pt.s0 = i
	}
	if i, ok := meta.Index(pair[1]); ok {
		pt.s1 = i
	}
	return pt
}

// bind reads the pair's values from db.
func (pt *pairTester) bind(db *engine.Database) (err error) {
	if pt.a0, err = db.Accessor(pt.cols[0]); err == nil {
		pt.a1, err = db.Accessor(pt.cols[1])
	}
	return err
}

// candidate reports whether both values of the row are individually common,
// given the row's single-column membership bits.
func (pt *pairTester) candidate(rowBits []uint64) bool {
	return !bitSet(rowBits, pt.s0) && !bitSet(rowBits, pt.s1)
}

func bitSet(words []uint64, i int) bool {
	return i >= 0 && words[i/64]&(1<<(uint(i)%64)) != 0
}

func setBit(words []uint64, i int) { words[i/64] |= 1 << (uint(i) % 64) }

// maskWords is how many 64-bit words, and so how many mask columns, a sample
// row's membership mask takes when |S| is width.
func maskWords(width int) int { return (width + 63) / 64 }

// key appends the row's encoded value tuple to buf.
func (pt *pairTester) key(buf []byte, row int) []byte {
	return engine.AppendKey(buf, []engine.Value{pt.a0.Value(row), pt.a1.Value(row)})
}

// test reports whether the row belongs in the pair table. It keeps no
// scratch state, so concurrent mask builders may share a tester (a per-call
// allocation is acceptable — pair tables are opt-in and their rows few).
func (pt *pairTester) test(row int, rowBits []uint64) bool {
	if !pt.candidate(rowBits) {
		return false
	}
	_, ok := pt.rare[engine.GroupKey(pt.key(make([]byte, 0, 32), row))]
	return ok
}

// buildPairs derives the pair small group tables' metadata and testers. A
// row belongs to the pair table when both its values are individually common
// and the (v1,v2) combination's total frequency lies in the rare tail of
// mass at most t·N.
func buildPairs(db *engine.Database, meta *Metadata, cfg SmallGroupConfig, rare *engine.RowClassifier) ([]*pairTester, error) {
	var testers []*pairTester
	n, w := db.NumRows(), rare.Words()
	rowBits := make([]uint64, maskRows*w)
	for _, pair := range cfg.Pairs {
		pt := newPairTester(meta, pair)
		if err := pt.bind(db); err != nil {
			return nil, fmt.Errorf("smallgroup: %w", err)
		}

		counts := make(map[engine.GroupKey]int64)
		var buf []byte
		for lo := 0; lo < n; lo += maskRows {
			m := min(maskRows, n-lo)
			rare.BlockBits(lo, m, rowBits)
			for j := range m {
				if pt.candidate(rowBits[j*w : (j+1)*w]) {
					buf = pt.key(buf[:0], lo+j)
					counts[engine.GroupKey(buf)]++
				}
			}
		}

		// Rare tuples: maximal ascending-frequency suffix with total mass
		// <= t*N.
		type kc struct {
			k engine.GroupKey
			c int64
		}
		all := make([]kc, 0, len(counts))
		for k, c := range counts {
			all = append(all, kc{k, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c < all[j].c
			}
			return all[i].k < all[j].k
		})
		budget := int64(cfg.SmallGroupFraction * float64(n))
		pt.rare = make(map[engine.GroupKey]struct{})
		var rareRows int64
		for _, e := range all {
			if rareRows+e.c > budget {
				break
			}
			pt.rare[e.k] = struct{}{}
			rareRows += e.c
		}
		if len(pt.rare) == 0 {
			continue // no small pair groups
		}
		pt.index = meta.AddPair(PairMeta{Cols: pair, Rare: pt.rare, RareRows: rareRows})
		testers = append(testers, pt)
	}
	return testers, nil
}

// bandBounds converts the level fractions into cumulative row budgets.
func bandBounds(n int64, levels []HierarchyLevel) []int64 {
	out := make([]int64, len(levels))
	for i, l := range levels {
		out[i] = int64(l.MaxFraction * float64(n))
	}
	return out
}

// assignBands walks value counts in ascending frequency order, assigning
// each value the first level whose cumulative budget still covers it, and
// returns the per-value level plus the mass stored at level 0.
func assignBands(asc []int64, bounds []int64) (levels []int, banded int, rareRows int64) {
	levels = make([]int, len(asc))
	var cum int64
	for i, cnt := range asc {
		cum += cnt
		lvl := -1
		for j, b := range bounds {
			if cum <= b {
				lvl = j
				break
			}
		}
		levels[i] = lvl
		if lvl < 0 {
			// Frequencies only grow; later values are common too.
			for k := i + 1; k < len(asc); k++ {
				levels[k] = -1
			}
			break
		}
		banded++
		rareRows = cum
	}
	return levels, banded, rareRows
}

// deriveBands turns one column's frequencies into its metadata and per-row
// band lookup: each value's hierarchy level, or -1 when the value is common
// (outside every band). ok is false when the column is dropped from S (τ
// exceeded, or no small groups).
func deriveBands(f *engine.ColumnFreq, n int64, levels []HierarchyLevel) (ColumnMeta, *engine.ColumnClasses, bool) {
	if f.Over {
		return ColumnMeta{}, nil, false
	}
	// Ascending frequency. Which of several equally frequent values falls on
	// the rare side of a band boundary is part of the sample family's
	// identity, so the tie order is frozen: strings ascending, numerics
	// descending.
	vcs := f.Counts()
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].Count != vcs[j].Count {
			return vcs[i].Count < vcs[j].Count
		}
		if f.View.Type == engine.String {
			return vcs[i].Value.Less(vcs[j].Value)
		}
		return vcs[j].Value.Less(vcs[i].Value)
	})
	asc := make([]int64, len(vcs))
	for i, vc := range vcs {
		asc[i] = vc.Count
	}
	lvls, banded, rareRows := assignBands(asc, bandBounds(n, levels))
	if banded == 0 {
		return ColumnMeta{}, nil, false
	}
	common := make(map[engine.Value]struct{})
	var exact map[engine.Value]struct{}
	if len(levels) > 1 {
		exact = make(map[engine.Value]struct{})
	}
	valueLevel := make(map[engine.Value]int8, banded)
	for i, vc := range vcs {
		switch lvl := lvls[i]; {
		case lvl < 0:
			common[vc.Value] = struct{}{}
		default:
			valueLevel[vc.Value] = int8(lvl)
			if lvl == 0 && exact != nil {
				exact[vc.Value] = struct{}{}
			}
		}
	}
	cm := ColumnMeta{Column: f.View.Name, Common: common, Exact: exact, RareRows: rareRows, Distinct: len(vcs)}
	band := f.Classify(func(v engine.Value) int8 {
		if lvl, ok := valueLevel[v]; ok {
			return lvl
		}
		return -1
	}, -1)
	return cm, band, true
}
