package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
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
		res.Offer(row)
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
		overallRows, overallWeights, err = cfg.Overall.BuildOverall(db, target, cfg.Seed+1)
		if err != nil {
			return nil, err
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
// pre-processed db and compares the seeded tracking state with the old
// loops'. maxTracked 0 means the default cap.
func AssertOnlineSeedMatchesNaive(t *testing.T, db *engine.Database, cfg SmallGroupConfig, maxTracked int) {
	t.Helper()
	sys := NewSystem(db)
	if err := sys.AddStrategy(NewSmallGroup(cfg)); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(sys, "smallgroup", OnlineConfig{Seed: 1, MaxTrackedPerColumn: maxTracked})
	if err != nil {
		t.Fatal(err)
	}
	meta := o.p.meta
	freqs, saturated, maxRare := naiveSeedFrequencies(meta, db, o.maxTracked)
	if !reflect.DeepEqual(o.freqs, freqs) {
		t.Fatalf("rare-frequency maps diverged from the naive seeding")
	}
	if !reflect.DeepEqual(o.saturated, saturated) {
		t.Fatalf("saturated flags %v, naive %v", o.saturated, saturated)
	}
	if o.maxRareCount != maxRare {
		t.Fatalf("max rare count %d, naive %d", o.maxRareCount, maxRare)
	}
	wantDrift := float64(maxRare) / (o.t * float64(db.NumRows()))
	for _, s := range saturated {
		if s {
			wantDrift = math.Inf(1)
		}
	}
	if o.Drift() != wantDrift {
		t.Fatalf("drift %v, naive %v", o.Drift(), wantDrift)
	}
	lim := o.p.cfg.DistinctLimit
	pos, vals := naiveSeedMissing(meta, db, lim)
	if fmt.Sprint(o.missingPos) != fmt.Sprint(pos) {
		t.Fatalf("missing-value columns %v, naive %v", o.missingPos, pos)
	}
	if !reflect.DeepEqual(o.missingVals, vals) {
		t.Fatalf("missing-value sets diverged from the naive seeding")
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
