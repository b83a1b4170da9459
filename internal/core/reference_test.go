package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dynsample/internal/bitmask"
	"dynsample/internal/engine"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
)

// The row-at-a-time pre-processing and seeding algorithms the typed,
// join-aware kernel replaced, kept as independent oracles (the naiveExecute
// pattern of internal/engine): every cell goes through ColumnAccessor.Value,
// every frequency through a map[engine.Value]int64, every band test through a
// per-row closure, and sample tables are flattened one row at a time through
// the public append API. The kernel path must reproduce their output byte
// for byte. reference_specs_test.go drives the comparison over the embedded
// scenario specs (an external test package: scenario imports core).

// naivePreprocess is SmallGroup.Preprocess as it was before the kernel.
func naivePreprocess(cfg SmallGroupConfig, db *engine.Database) (*smallGroupPrepared, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	candidates := cfg.Columns
	if candidates == nil {
		candidates = db.Columns()
	}
	n := db.NumRows()

	counters := make([]*naiveCounter, 0, len(candidates))
	for _, name := range candidates {
		acc, err := db.Accessor(name)
		if err != nil {
			return nil, err
		}
		ct, err := db.ColumnType(name)
		if err != nil {
			return nil, err
		}
		counters = append(counters, newNaiveCounter(name, acc, ct, cfg.DistinctLimit))
	}
	for _, c := range counters {
		for row := 0; row < n; row++ {
			c.observe(row)
		}
	}
	var metas []ColumnMeta
	var bands []naiveBandTester
	for _, c := range counters {
		cm, tester, ok := c.finish(int64(n), cfg.Levels)
		if !ok {
			continue
		}
		metas = append(metas, cm)
		bands = append(bands, tester)
	}
	meta := NewMetadata(int64(n), metas)
	pairTesters, err := naiveBuildPairs(db, meta, cfg, bands)
	if err != nil {
		return nil, err
	}
	width := meta.Width()

	rng := randx.New(cfg.Seed)
	maskOf := func(row int) bitmask.Mask {
		m := bitmask.New(width)
		for i, band := range bands {
			if band(row) >= 0 {
				m.Set(i)
			}
		}
		for _, pt := range pairTesters {
			if pt.test(row) {
				m.Set(pt.index)
			}
		}
		return m
	}
	target := int(cfg.BaseRate * float64(n))
	if target < 1 {
		target = 1
	}
	res := sample.NewReservoir(target, rng)
	tableRows := make([][]int, width)
	tableWeights := make([][]float64, width)
	weighted := make([]bool, width)
	for row := 0; row < n; row++ {
		for i, band := range bands {
			b := band(row)
			if b < 0 {
				continue
			}
			rate := cfg.Levels[b].Rate
			if rate < 1 {
				if rng.Float64() >= rate {
					continue
				}
				weighted[i] = true
			}
			tableRows[i] = append(tableRows[i], row)
			tableWeights[i] = append(tableWeights[i], 1/rate)
		}
		for _, pt := range pairTesters {
			if pt.test(row) {
				tableRows[pt.index] = append(tableRows[pt.index], row)
				tableWeights[pt.index] = append(tableWeights[pt.index], 1)
			}
		}
		if cfg.Overall == nil {
			res.Offer(row)
		}
	}

	p := &smallGroupPrepared{db: db, meta: meta, cfg: cfg, tables: make([]sampleSource, width), pstats: &plannerStats{}}
	names := make([]string, width)
	for _, cm := range meta.Columns() {
		names[cm.Index] = "sg_" + cm.Column
	}
	for _, pm := range meta.Pairs() {
		names[pm.Index] = "sg_" + pm.Cols[0] + "__" + pm.Cols[1]
	}
	var overallRows []int
	var overallWeights []float64
	if cfg.Overall != nil {
		rows, weights, err := cfg.Overall.BuildOverall(db, cfg.BaseRate)
		if err != nil {
			return nil, err
		}
		// The selection in base-row order, each weight with its row.
		at := make(map[int]int, len(rows))
		for i, r := range rows {
			at[r] = i
		}
		for r := 0; r < n; r++ {
			if i, ok := at[r]; ok {
				overallRows = append(overallRows, r)
				if weights != nil {
					overallWeights = append(overallWeights, weights[i])
				}
			}
		}
	} else {
		overallRows = append([]int(nil), res.Items()...)
		sort.Ints(overallRows)
	}
	p.overallScale = 1 // weighted rows count for their weight
	if overallWeights == nil {
		p.overallScale = float64(n) / float64(len(overallRows))
	}

	var renorm *engine.Renormalizer
	if cfg.Renormalize {
		all := append(append([][]int{}, tableRows...), overallRows)
		renorm = engine.NewRenormalizer(db, all...)
		p.sharedDims = renorm.ReducedDims()
	}
	for i := 0; i <= width; i++ {
		rows, name, w := overallRows, "sg_overall", overallWeights
		if i < width {
			rows, name, w = tableRows[i], names[i], nil
			if weighted[i] {
				w = tableWeights[i]
			}
		}
		masks := make([]bitmask.Mask, len(rows))
		for j, r := range rows {
			masks[j] = maskOf(r)
		}
		src := sampleSource{name: name}
		if renorm != nil {
			if src.src, err = renorm.Build(name, rows, masks, w); err != nil {
				return nil, err
			}
		} else {
			src.src = naiveFlatten(db, name, rows, masks, w)
		}
		if i < width {
			p.tables[i] = src
		} else {
			p.overall = src
		}
	}
	return p, nil
}

// naiveFlatten materialises the joined view for rows one cell at a time
// through Accessor.Value and Column.Append. Only the engine adds columns under
// reserved names, so the masks and weights go on through its Flatten, over
// every row of the copy.
func naiveFlatten(db *engine.Database, name string, rows []int, masks []bitmask.Mask, weights []float64) *engine.Table {
	var cols []*engine.Column
	var accs []engine.ColumnAccessor
	for _, cn := range db.Columns() {
		ct, _ := db.ColumnType(cn)
		acc, _ := db.Accessor(cn)
		cols = append(cols, engine.NewColumn(cn, ct))
		accs = append(accs, acc)
	}
	out := engine.NewTable(name, cols...)
	all := make([]int, len(rows))
	for j, r := range rows {
		for i, acc := range accs {
			cols[i].Append(acc.Value(r))
		}
		out.EndRow()
		all[j] = j
	}
	return engine.MustNewDatabase(name, out).Flatten(name, all, masks, weights)
}

type naivePairTester struct {
	index int
	test  func(row int) bool
}

func naiveBuildPairs(db *engine.Database, meta *Metadata, cfg SmallGroupConfig, bands []naiveBandTester) ([]naivePairTester, error) {
	n := db.NumRows()
	bandOf := make(map[string]naiveBandTester, len(meta.Columns()))
	for i, cm := range meta.Columns() {
		bandOf[cm.Column] = bands[i]
	}
	commonRow := func(col string) func(row int) bool {
		if t, ok := bandOf[col]; ok {
			return func(row int) bool { return t(row) < 0 }
		}
		return func(int) bool { return true } // not in S: every value common
	}
	var testers []naivePairTester
	for _, pair := range cfg.Pairs {
		acc0, err := db.Accessor(pair[0])
		if err != nil {
			return nil, err
		}
		acc1, err := db.Accessor(pair[1])
		if err != nil {
			return nil, err
		}
		common0, common1 := commonRow(pair[0]), commonRow(pair[1])
		key := func(row int) engine.GroupKey {
			return engine.EncodeKey([]engine.Value{acc0.Value(row), acc1.Value(row)})
		}
		counts := make(map[engine.GroupKey]int64)
		for row := 0; row < n; row++ {
			if common0(row) && common1(row) {
				counts[key(row)]++
			}
		}
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
		rare := make(map[engine.GroupKey]struct{})
		var rareRows int64
		for _, e := range all {
			if rareRows+e.c > budget {
				break
			}
			rare[e.k] = struct{}{}
			rareRows += e.c
		}
		if len(rare) == 0 {
			continue
		}
		index := meta.AddPair(PairMeta{Cols: pair, Rare: rare, RareRows: rareRows})
		testers = append(testers, naivePairTester{index: index, test: func(row int) bool {
			if !common0(row) || !common1(row) {
				return false
			}
			_, ok := rare[key(row)]
			return ok
		}})
	}
	return testers, nil
}

// naiveBandTester returns the hierarchy level of a base row's value for one
// column, or -1 when the value is common.
type naiveBandTester func(row int) int

// naiveCounter accumulates one candidate column's value frequencies a row at
// a time.
type naiveCounter struct {
	name  string
	limit int

	code  engine.CodeAccessor // non-nil for dictionary-encoded columns
	codes []int64
	acc   engine.ColumnAccessor
	count map[engine.Value]int64
	alive bool
}

func newNaiveCounter(name string, acc engine.ColumnAccessor, t engine.Type, limit int) *naiveCounter {
	c := &naiveCounter{name: name, limit: limit, acc: acc, alive: true}
	if ca, ok := acc.(engine.CodeAccessor); ok && t == engine.String {
		c.code = ca
	} else {
		c.count = make(map[engine.Value]int64)
	}
	return c
}

func (c *naiveCounter) observe(row int) {
	if !c.alive {
		return
	}
	if c.code != nil {
		code := c.code.Code(row)
		for int(code) >= len(c.codes) {
			c.codes = append(c.codes, 0)
		}
		c.codes[code]++
		return
	}
	c.count[c.acc.Value(row)]++
	if len(c.count) > c.limit {
		c.alive = false
		c.count = nil
	}
}

func (c *naiveCounter) finish(n int64, levels []HierarchyLevel) (ColumnMeta, naiveBandTester, bool) {
	if !c.alive {
		return ColumnMeta{}, nil, false
	}
	if c.code != nil {
		return c.finishDict(n, levels)
	}
	vcs := make([]engine.ValueCount, 0, len(c.count)) // descending
	for v, cnt := range c.count {
		vcs = append(vcs, engine.ValueCount{Value: v, Count: cnt})
	}
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].Count != vcs[j].Count {
			return vcs[i].Count > vcs[j].Count
		}
		return vcs[i].Value.Less(vcs[j].Value)
	})
	asc := make([]int64, len(vcs))
	for i := range vcs {
		asc[i] = vcs[len(vcs)-1-i].Count
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
	valueLevel := make(map[engine.Value]int, len(vcs))
	for i, vc := range vcs {
		lvl := lvls[len(vcs)-1-i]
		switch {
		case lvl < 0:
			common[vc.Value] = struct{}{}
		case lvl == 0 && exact != nil:
			exact[vc.Value] = struct{}{}
		}
		if lvl >= 0 {
			valueLevel[vc.Value] = lvl
		}
	}
	cm := ColumnMeta{Column: c.name, Common: common, Exact: exact, RareRows: rareRows, Distinct: len(vcs)}
	acc := c.acc
	return cm, func(row int) int {
		if lvl, ok := valueLevel[acc.Value(row)]; ok {
			return lvl
		}
		return -1
	}, true
}

func (c *naiveCounter) finishDict(n int64, levels []HierarchyLevel) (ColumnMeta, naiveBandTester, bool) {
	type cc struct {
		code  int32
		count int64
	}
	var vcs []cc
	for code, count := range c.codes {
		if count > 0 {
			vcs = append(vcs, cc{int32(code), count})
		}
	}
	if len(vcs) > c.limit {
		return ColumnMeta{}, nil, false
	}
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].count != vcs[j].count {
			return vcs[i].count < vcs[j].count
		}
		return c.code.DictValue(vcs[i].code) < c.code.DictValue(vcs[j].code)
	})
	asc := make([]int64, len(vcs))
	for i, vc := range vcs {
		asc[i] = vc.count
	}
	lvls, banded, rareRows := assignBands(asc, bandBounds(n, levels))
	if banded == 0 {
		return ColumnMeta{}, nil, false
	}
	levelByCode := make([]int8, len(c.codes))
	for i := range levelByCode {
		levelByCode[i] = -1
	}
	common := make(map[engine.Value]struct{})
	var exact map[engine.Value]struct{}
	if len(levels) > 1 {
		exact = make(map[engine.Value]struct{})
	}
	for i, vc := range vcs {
		lvl := lvls[i]
		levelByCode[vc.code] = int8(lvl)
		v := engine.StringVal(c.code.DictValue(vc.code))
		switch {
		case lvl < 0:
			common[v] = struct{}{}
		case lvl == 0 && exact != nil:
			exact[v] = struct{}{}
		}
	}
	cm := ColumnMeta{Column: c.name, Common: common, Exact: exact, RareRows: rareRows, Distinct: len(vcs)}
	code := c.code
	return cm, func(row int) int { return int(levelByCode[code.Code(row)]) }, true
}

// naiveSeedFrequencies is Online.seedFrequencies as it was: per column of S,
// one Value-boxing pass counting the values outside L(C), saturating past
// maxTracked distinct ones.
func naiveSeedFrequencies(meta *Metadata, db *engine.Database, maxTracked int) (freqs []map[engine.Value]int64, saturated []bool, maxRare int64) {
	cols := meta.Columns()
	freqs = make([]map[engine.Value]int64, len(cols))
	saturated = make([]bool, len(cols))
	for i, cm := range cols {
		acc, _ := db.Accessor(cm.Column)
		freq := make(map[engine.Value]int64)
		for row := 0; row < db.NumRows(); row++ {
			v := acc.Value(row)
			if _, ok := cm.Common[v]; ok {
				continue
			}
			freq[v]++
			if len(freq) > maxTracked {
				saturated[i] = true
				freq = nil
				break
			}
		}
		freqs[i] = freq
		for _, c := range freq {
			if c > maxRare {
				maxRare = c
			}
		}
	}
	return freqs, saturated, maxRare
}

// naiveSeedMissing is Online.seedMissing as it was: the value set of every
// view column outside S with at most lim distinct values.
func naiveSeedMissing(meta *Metadata, db *engine.Database, lim int) (pos []int, vals []map[engine.Value]struct{}) {
	for i, name := range db.Columns() {
		if _, inS := meta.Column(name); inS {
			continue
		}
		acc, _ := db.Accessor(name)
		set := make(map[engine.Value]struct{})
		for row := 0; row < db.NumRows(); row++ {
			set[acc.Value(row)] = struct{}{}
			if len(set) > lim {
				set = nil
				break
			}
		}
		if set != nil {
			pos = append(pos, i)
			vals = append(vals, set)
		}
	}
	return pos, vals
}

// naiveFamily is Online's tracking state as it was before classification
// moved to scan 2's mask path: view positions per column and pair, and
// value-keyed maps for the rare-value counts and the dropped columns' values.
type naiveFamily struct {
	meta        *Metadata
	cap         int
	seen        int64
	maxTracked  int
	colPos      []int    // per meta column: position in the view column order
	pairPos     [][2]int // per pair: view positions of both columns
	freqs       []map[engine.Value]int64
	saturated   []bool
	maxRare     int64
	missingPos  []int
	missingVals []map[engine.Value]struct{}
	missingNew  int64
}

// newNaiveFamily seeds the naive tracking state of family p: the counts from
// live, the dropped columns' values from pinned at distinct limit lim.
func newNaiveFamily(p *smallGroupPrepared, live, pinned *engine.Database, lim, maxTracked int) *naiveFamily {
	nf := &naiveFamily{meta: p.meta, cap: int(p.overall.rows()), seen: int64(pinned.NumRows()), maxTracked: maxTracked}
	pos := make(map[string]int)
	for i, name := range live.Columns() {
		pos[name] = i
	}
	for _, cm := range p.meta.Columns() {
		nf.colPos = append(nf.colPos, pos[cm.Column])
	}
	for _, pm := range p.meta.Pairs() {
		nf.pairPos = append(nf.pairPos, [2]int{pos[pm.Cols[0]], pos[pm.Cols[1]]})
	}
	nf.freqs, nf.saturated, nf.maxRare = naiveSeedFrequencies(p.meta, live, maxTracked)
	nf.missingPos, nf.missingVals = naiveSeedMissing(p.meta, pinned, lim)
	return nf
}

// naiveClassifyBatch is family.classify as it was: per row, a boxed value
// map probe per column of S, an EncodeKey per pair, and a map probe per
// watched dropped column.
func naiveClassifyBatch(nf *naiveFamily, rows [][]engine.Value, rng *rand.Rand, bumpFreqs bool) (words []uint64, perTable map[int][]int, victims []reservoirHit) {
	meta := nf.meta
	w := maskWords(meta.Width())
	words = make([]uint64, len(rows)*w)
	perTable = make(map[int][]int)
	for i, p := range nf.missingPos {
		for _, row := range rows {
			if _, ok := nf.missingVals[i][row[p]]; !ok {
				nf.missingNew++
			}
		}
	}
	for ri, row := range rows {
		m := words[ri*w:][:w]
		for ci, cm := range meta.Columns() {
			v := row[nf.colPos[ci]]
			if _, common := cm.Common[v]; common {
				continue
			}
			if bumpFreqs && !nf.saturated[ci] {
				if c := nf.freqs[ci][v] + 1; c == 1 && len(nf.freqs[ci]) >= nf.maxTracked {
					nf.saturated[ci], nf.freqs[ci] = true, nil
				} else {
					nf.freqs[ci][v] = c
					nf.maxRare = max(nf.maxRare, c)
				}
			}
			setBit(m, cm.Index)
			perTable[cm.Index] = append(perTable[cm.Index], ri)
		}
		for pi, pm := range meta.Pairs() {
			v0, v1 := row[nf.pairPos[pi][0]], row[nf.pairPos[pi][1]]
			if !meta.IsCommon(pm.Cols[0], v0) || !meta.IsCommon(pm.Cols[1], v1) {
				continue
			}
			if _, rare := pm.Rare[engine.EncodeKey([]engine.Value{v0, v1})]; rare {
				setBit(m, pm.Index)
				perTable[pm.Index] = append(perTable[pm.Index], ri)
			}
		}
		nf.seen++
		if j := rng.Int63n(nf.seen); j < int64(nf.cap) {
			victims = append(victims, reservoirHit{slot: int(j), ri: ri})
		}
	}
	return words, perTable, victims
}

// drift is Online.Drift over the naive state.
func (nf *naiveFamily) drift(t float64, n int) float64 {
	for _, s := range nf.saturated {
		if s {
			return math.Inf(1)
		}
	}
	d := float64(nf.maxRare) / (t * float64(n))
	if nf.missingNew > 0 && d < 1 {
		d = 1
	}
	return d
}

// freqsDigest renders rare-value counts sorted, each column's on a line, both
// zeros as one: reflect.DeepEqual tells no two maps with a NaN key equal, and
// which zero a map keeps is whichever came first.
func freqsDigest(freqs []map[engine.Value]int64) string {
	var sb strings.Builder
	for _, freq := range freqs {
		var line []string
		for v, c := range freq {
			if v.T == engine.Float && v.F == 0 {
				v.F = 0
			}
			line = append(line, fmt.Sprintf("%s:%d", v, c))
		}
		sort.Strings(line)
		fmt.Fprintf(&sb, "%v %v\n", freq == nil, line)
	}
	return sb.String()
}

// assertSameTracking compares the online family's tracking state with the
// naive one's: the counts, the saturation flags, the dropped columns' new
// values and the drift gauge.
func assertSameTracking(t *testing.T, o *Online, nf *naiveFamily) {
	t.Helper()
	if got, want := freqsDigest(o.freqs), freqsDigest(nf.freqs); got != want {
		t.Fatalf("rare-frequency maps diverged from the naive tracking:\n%s\nnaive\n%s", got, want)
	}
	if !reflect.DeepEqual(o.saturated, nf.saturated) {
		t.Fatalf("saturated flags %v, naive %v", o.saturated, nf.saturated)
	}
	if o.maxRareCount != nf.maxRare {
		t.Fatalf("max rare count %d, naive %d", o.maxRareCount, nf.maxRare)
	}
	if o.missingNew != nf.missingNew {
		t.Fatalf("%d new values in dropped columns, naive %d", o.missingNew, nf.missingNew)
	}
	if d, want := o.Drift(), nf.drift(o.t, o.DB().NumRows()); d != want {
		t.Fatalf("drift %v, naive %v", d, want)
	}
}

// familyBytes serialises everything SaveSmallGroup would write after the
// metadata header — every sample table in index order, then the overall
// sample — and, unlike SaveSmallGroup, also renormalized storage (fact slice
// plus shared reduced dimensions).
func familyBytes(t *testing.T, p *smallGroupPrepared) []byte {
	t.Helper()
	var buf bytes.Buffer
	write := func(tbl *engine.Table) {
		if err := engine.WriteBinary(tbl, &buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range append(append([]sampleSource{}, p.tables...), p.overall) {
		switch src := s.src.(type) {
		case *engine.Table:
			write(src)
		case *engine.Database:
			write(src.Fact)
		}
	}
	for _, d := range p.sharedDims {
		write(d)
	}
	return buf.Bytes()
}

// AssertPreprocessMatchesNaive pre-processes db with the naive algorithm and,
// for every worker count, with the kernel, and fails unless the sample
// families are byte-identical: the serialised tables (values, dictionaries
// in first-appearance order, masks, weights), the metadata catalog, and —
// for flat storage — the SaveSmallGroup stream itself.
func AssertPreprocessMatchesNaive(t *testing.T, db *engine.Database, cfg SmallGroupConfig, workers ...int) {
	t.Helper()
	want, err := naivePreprocess(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		cfg.Workers = w
		prep, err := NewSmallGroup(cfg).Preprocess(db)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			assertSameFamily(t, prep.(*smallGroupPrepared), want)
		})
	}
}

func assertSameFamily(t *testing.T, got, want *smallGroupPrepared) {
	t.Helper()
	if !reflect.DeepEqual(got.meta, want.meta) {
		t.Fatalf("metadata diverged:\n%s\nvs naive\n%s", got.meta, want.meta)
	}
	if got.overallScale != want.overallScale {
		t.Fatalf("overall scale %v, naive %v", got.overallScale, want.overallScale)
	}
	gotTables, wantTables := familyBytes(t, got), familyBytes(t, want)
	if !bytes.Equal(gotTables, wantTables) {
		t.Fatalf("sample tables differ from the naive family (%d vs %d bytes)", len(gotTables), len(wantTables))
	}
	if want.cfg.Renormalize {
		return // not serialisable
	}
	// SaveSmallGroup writes the value sets of the metadata header in map
	// order, so two saves of one state already differ there; the header is
	// compared by length (and by content above), the table stream bytewise.
	var gotSave, wantSave bytes.Buffer
	if err := SaveSmallGroup(&gotSave, got); err != nil {
		t.Fatal(err)
	}
	if err := SaveSmallGroup(&wantSave, want); err != nil {
		t.Fatal(err)
	}
	if gotSave.Len() != wantSave.Len() || !bytes.HasSuffix(gotSave.Bytes(), wantTables) {
		t.Fatalf("SaveSmallGroup stream differs from the naive family's (%d vs %d bytes)", gotSave.Len(), wantSave.Len())
	}
}

// AssertOnlineSeedMatchesNaive attaches online maintenance to a freshly
// pre-processed db, with a rare-value cap of maxTracked (0 means the default
// cap), and compares the seeded tracking state with the old loops'. The
// dropped-column watch is held to them by its verdicts: on every row of db
// the watch sees no new value.
func AssertOnlineSeedMatchesNaive(t *testing.T, db *engine.Database, cfg SmallGroupConfig, maxTracked int) {
	t.Helper()
	if maxTracked == 0 {
		maxTracked = maxTrackedPerColumn
	}
	sys := NewSystem(db)
	if err := sys.AddStrategy(NewSmallGroup(cfg)); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.family, err = newFamily(o.p, db, db, 0, maxTracked); err != nil {
		t.Fatal(err)
	}
	assertSameTracking(t, o, newNaiveFamily(o.p, db, db, o.p.cfg.DistinctLimit, maxTracked))
	verdicts := make([]uint64, db.NumRows()*o.missing.Words())
	o.missing.BlockBits(0, db.NumRows(), verdicts)
	for i, word := range verdicts {
		if word != 0 {
			t.Fatalf("the dropped-column watch finds a new value in row %d of the database it was seeded from", i/o.missing.Words())
		}
	}
}

// probeBatches draws, in view column order, the ingest batches the online
// oracle compares on: copies of existing rows; rows that carry a common and a
// rare value of each dimension column of S into a new dimension row (another
// column of the dimension takes a new value); a new string in every string
// column; integers outside any dense span and both int64 extremes in every
// integer column; NaN, both zeros and a new value in every float column — so
// every dropped column gets a new value too; and last, flood distinct new
// values in the first column of S.
func probeBatches(t *testing.T, db *engine.Database, meta *Metadata, rng *rand.Rand, flood int) [][][]engine.Value {
	t.Helper()
	names := db.Columns()
	accs := make([]engine.ColumnAccessor, len(names))
	views := make([]engine.ColumnView, len(names))
	pos := make(map[string]int)
	for j, name := range names {
		var err error
		if accs[j], err = db.Accessor(name); err != nil {
			t.Fatal(err)
		}
		if views[j], err = db.View(name); err != nil {
			t.Fatal(err)
		}
		pos[name] = j
	}
	row := func() []engine.Value {
		r, out := rng.Intn(db.NumRows()), make([]engine.Value, len(names))
		for j, acc := range accs {
			out[j] = acc.Value(r)
		}
		return out
	}
	fresh := func(j, k int) engine.Value {
		switch views[j].Type {
		case engine.String:
			return engine.StringVal(fmt.Sprintf("%s~new%d", names[j], k))
		case engine.Int:
			return engine.IntVal(1<<40 + int64(k))
		default:
			return engine.FloatVal(-1e9 - float64(k))
		}
	}
	with := func(j int, v engine.Value) []engine.Value {
		r := row()
		r[j] = v
		return r
	}
	var copies, dims, values [][]engine.Value
	for range 24 {
		copies = append(copies, row())
	}
	for _, cm := range meta.Columns() {
		j := pos[cm.Column]
		if views[j].Dim < 0 {
			continue
		}
		vcs, err := db.DistinctValues(cm.Column)
		if err != nil {
			t.Fatal(err)
		}
		// Most frequent first: the first value is common, the last rare.
		for _, vc := range []engine.ValueCount{vcs[0], vcs[len(vcs)-1]} {
			r := with(j, vc.Value)
			for d, v := range views {
				if d != j && v.Dim == views[j].Dim {
					r[d] = fresh(d, len(dims))
					break
				}
			}
			dims = append(dims, r)
		}
	}
	for j, v := range views {
		switch v.Type {
		case engine.String:
			values = append(values, with(j, fresh(j, 0)), with(j, fresh(j, 1)))
		case engine.Int:
			values = append(values, with(j, fresh(j, 0)), with(j, engine.IntVal(math.MaxInt64)), with(j, engine.IntVal(math.MinInt64)))
		default:
			values = append(values, with(j, fresh(j, 0)), with(j, engine.FloatVal(math.NaN())),
				with(j, engine.FloatVal(0)), with(j, engine.FloatVal(math.Copysign(0, -1))))
		}
	}
	var flooded [][]engine.Value
	if cols := meta.Columns(); len(cols) > 0 {
		j := pos[cols[0].Column]
		for k := range flood {
			flooded = append(flooded, with(j, fresh(j, 100+k)))
		}
	}
	return [][][]engine.Value{copies, dims, values, flooded}
}

// detached returns a copy of family p whose tables are read back from their
// table format: a writer lineage of their own, which a second copy of a
// batch's updates may append to.
func detached(t *testing.T, p *smallGroupPrepared) *smallGroupPrepared {
	t.Helper()
	copyOf := func(s sampleSource) sampleSource {
		var buf bytes.Buffer
		if err := engine.WriteBinary(s.src.(*engine.Table), &buf); err != nil {
			t.Fatal(err)
		}
		tbl, err := engine.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return sampleSource{src: tbl, name: s.name}
	}
	cp := *p
	cp.tables = make([]sampleSource, len(p.tables))
	for i, s := range p.tables {
		cp.tables[i] = copyOf(s)
	}
	cp.overall = copyOf(p.overall)
	return &cp
}

// AssertOnlineClassifyMatchesNaive pre-processes db with cfg — and, with
// restored, saves and loads the family — attaches online maintenance, and
// ingests probeBatches through Apply, then through a Rebase onto the family
// pre-processed mid-stream with the last batches as its tail, and one more
// Apply. After every step the mask words of the batch's rows, the sample
// family (so the per-table row lists and the reservoir victims), the insert
// and swap counts, and the tracking state must equal what the loop classify
// replaced (naiveClassifyBatch) makes of the same batches. db must be a
// database no other writer grows.
func AssertOnlineClassifyMatchesNaive(t *testing.T, db *engine.Database, cfg SmallGroupConfig, restored bool) {
	t.Helper()
	const seed = 7
	cfg = cfg.withDefaults()
	p, err := NewSmallGroup(cfg).Preprocess(db)
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		var buf bytes.Buffer
		if err := SaveSmallGroup(&buf, p); err != nil {
			t.Fatal(err)
		}
		if p, err = LoadSmallGroup(&buf); err != nil {
			t.Fatal(err)
		}
	}
	sys := NewSystem(db)
	sys.AddPrepared("smallgroup", p)
	o, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: seed, SmallGroupFraction: cfg.SmallGroupFraction})
	if err != nil {
		t.Fatal(err)
	}
	// A cap just past the most rare values any column holds, so that the last
	// batch's flood saturates the column it floods.
	maxTracked := 8
	free, _, _ := naiveSeedFrequencies(o.p.meta, db, math.MaxInt)
	for _, freq := range free {
		maxTracked = max(maxTracked, len(freq)+8)
	}
	if o.family, err = newFamily(o.p, db, db, o.p.dataGen, maxTracked); err != nil {
		t.Fatal(err)
	}
	nf := newNaiveFamily(o.p, db, db, cfg.DistinctLimit, maxTracked)
	assertSameTracking(t, o, nf)

	// compare holds the batch o just applied, or replayed as seq, at rows
	// [lo, lo+len(rows)), to the naive classification onto the family before.
	compare := func(seq uint64, rows [][]engine.Value, lo int, before *smallGroupPrepared, st BatchStats, nf *naiveFamily, bump bool) {
		t.Helper()
		words, perTable, victims := naiveClassifyBatch(nf, rows, randx.New(batchSeed(seed, seq)), bump)
		got := make([]uint64, len(words))
		o.split.masks(lo, len(rows), got)
		if !reflect.DeepEqual(got, words) {
			t.Fatalf("batch %d: mask words differ from the naive classification", seq)
		}
		want := detached(t, before)
		var wst BatchStats
		(&family{p: want}).applySampleUpdates(want, rows, words, perTable, victims, &wst)
		if st.SmallGroupInserts != wst.SmallGroupInserts || st.ReservoirSwaps != wst.ReservoirSwaps {
			t.Fatalf("batch %d: %d inserts and %d swaps, naive %d and %d", seq, st.SmallGroupInserts, st.ReservoirSwaps, wst.SmallGroupInserts, wst.ReservoirSwaps)
		}
		if !bytes.Equal(familyBytes(t, o.p), familyBytes(t, want)) {
			t.Fatalf("batch %d: sample family differs from the naive classification's", seq)
		}
		assertSameTracking(t, o, nf)
	}
	apply := func(seq uint64, rows [][]engine.Value) {
		t.Helper()
		before, lo := o.p, o.DB().NumRows()
		st, err := o.Apply(seq, rows)
		if err != nil {
			t.Fatal(err)
		}
		compare(seq, rows, lo, before, st, nf, true)
	}

	meta := o.p.meta
	batches := probeBatches(t, db, meta, randx.New(seed), maxTracked+8)
	apply(1, batches[0])
	apply(2, batches[1])
	pinned, pinnedGen := sys.Data()
	rebuilt, err := NewSmallGroup(cfg).Preprocess(pinned)
	if err != nil {
		t.Fatal(err)
	}
	apply(3, batches[2])
	tail := []TailBatch{{Seq: 3, Rows: batches[2]}}
	if err := o.Rebase(rebuilt, pinnedGen, tail); err != nil {
		t.Fatal(err)
	}
	// The naive rebase: tracking seeded from the rebuilt family, the tail
	// replayed without bumps onto it.
	live := o.DB()
	rp := *rebuilt.(*smallGroupPrepared)
	rp.db = live
	nf = newNaiveFamily(&rp, live, pinned, cfg.DistinctLimit, maxTracked)
	replayed, lo := detached(t, &rp), pinned.NumRows()
	for _, b := range tail {
		var st BatchStats
		words, perTable, victims := naiveClassifyBatch(nf, b.Rows, randx.New(batchSeed(seed, b.Seq)), false)
		(&family{p: replayed}).applySampleUpdates(replayed, b.Rows, words, perTable, victims, &st)
		got := make([]uint64, len(words))
		o.split.masks(lo, len(b.Rows), got)
		if !reflect.DeepEqual(got, words) {
			t.Fatalf("rebase tail batch %d: mask words differ from the naive classification", b.Seq)
		}
		lo += len(b.Rows)
	}
	if !bytes.Equal(familyBytes(t, o.p), familyBytes(t, replayed)) {
		t.Fatal("rebased sample family differs from the naive replay's")
	}
	assertSameTracking(t, o, nf)
	apply(4, batches[3])
	if cols := meta.Columns(); len(cols) > 0 {
		if ci, ok := o.p.meta.Index(cols[0].Column); ok && !o.saturated[ci] {
			t.Fatalf("a flood of %d new values left %s unsaturated at cap %d", len(batches[3]), cols[0].Column, maxTracked)
		}
	}
}

// RunPreprocessLayers is the body of BenchmarkPreprocessLayers (declared in
// reference_specs_test.go, which can import the scenario specs): one
// sub-benchmark per pre-processing phase, each fed the previous phase's
// output, plus the online seeding that follows pre-processing on an
// ingest-enabled server. Every phase runs at one worker; Classify, whose
// mask pass is sharded, at two as well.
func RunPreprocessLayers(b *testing.B, db *engine.Database) {
	cfg := SmallGroupConfig{BaseRate: 0.01, Seed: 1, Workers: 1}.withDefaults()
	split, err := countBands(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := split.classify(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(db)
	if err := sys.AddStrategy(NewSmallGroup(cfg)); err != nil {
		b.Fatal(err)
	}
	phase := func(name string, fn func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	phase("Count", func() error { _, err := countBands(db, cfg); return err })
	for _, workers := range []int{1, 2} {
		wcfg := cfg
		wcfg.Workers = workers
		phase(fmt.Sprintf("Classify/workers=%d", workers), func() error { _, err := split.classify(db, wcfg); return err })
	}
	phase("Materialise", func() error { _, err := split.materialise(db, cfg, rows); return err })
	phase("OnlineSeed", func() error {
		_, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: 1})
		return err
	})
}
