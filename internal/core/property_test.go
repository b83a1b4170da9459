package core

import (
	"math"
	"testing"
	"testing/quick"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

// randomDB builds a small random single-table database whose shape (column
// cardinalities, skews, row count) is derived from the seed.
func randomDB(seed int64) *engine.Database {
	rng := randx.New(seed)
	n := 2000 + rng.Intn(3000)
	nCols := 2 + rng.Intn(3)
	cols := make([]*engine.Column, nCols)
	zipfs := make([]*randx.Zipf, nCols)
	for j := 0; j < nCols; j++ {
		cols[j] = engine.NewColumn(string(rune('a'+j)), engine.String)
		card := 5 + rng.Intn(100)
		zipfs[j] = randx.NewZipf(0.5+rng.Float64()*2, card)
	}
	m := engine.NewColumn("m", engine.Int)
	fact := engine.NewTable("fact", append(cols, m)...)
	for i := 0; i < n; i++ {
		for j := 0; j < nCols; j++ {
			cols[j].AppendString("v" + string(rune('0'+j)) + "_" + itoa(zipfs[j].Index(rng.Float64())))
		}
		m.AppendInt(int64(rng.Intn(100)))
		fact.EndRow()
	}
	return engine.MustNewDatabase("rand", fact)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Property: for any random database, rate and seed, every group whose value
// is outside L(C) is present in the approximate answer, marked exact, and
// numerically identical to the ground truth — for COUNT and SUM alike.
func TestPropertyRareGroupsExact(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDB(seed)
		rng := randx.New(seed + 1)
		rate := 0.01 + rng.Float64()*0.1
		p, err := NewSmallGroup(SmallGroupConfig{BaseRate: rate, Seed: seed + 2}).Preprocess(db)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sgp := p.(*smallGroupPrepared)
		q := &engine.Query{
			GroupBy: []string{"a"},
			Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}},
		}
		exact, err := engine.ExecuteExact(db, q)
		if err != nil {
			return false
		}
		ans, err := sgp.Answer(q)
		if err != nil {
			return false
		}
		for _, k := range exact.Keys() {
			eg := exact.Group(k)
			if sgp.Meta().IsCommon("a", eg.Key[0]) {
				continue
			}
			ag := ans.Result.Group(k)
			if ag == nil || !ag.Exact {
				t.Logf("seed %d: rare group %v missing or inexact", seed, eg.Key)
				return false
			}
			for i := range eg.Vals {
				if math.Abs(eg.Vals[i]-ag.Vals[i]) > 1e-9 {
					t.Logf("seed %d: rare group %v agg %d %g != %g", seed, eg.Key, i, ag.Vals[i], eg.Vals[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: at sampling rate 1 the combined rewritten query reproduces the
// exact answer for any grouping of columns — the bitmask chaining never
// double-counts and never drops a row, regardless of how the small group
// tables overlap.
func TestPropertyRateOnePartition(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDB(seed)
		rng := randx.New(seed + 3)
		p, err := NewSmallGroup(SmallGroupConfig{
			BaseRate:           1,
			SmallGroupFraction: 0.05 + rng.Float64()*0.2, // big, heavily overlapping tables
			Seed:               seed + 4,
		}).Preprocess(db)
		if err != nil {
			return false
		}
		groupBy := []string{"a", "b"}
		if rng.Intn(2) == 0 {
			groupBy = []string{"b"}
		}
		q := &engine.Query{GroupBy: groupBy, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}
		exact, err := engine.ExecuteExact(db, q)
		if err != nil {
			return false
		}
		ans, err := p.Answer(q)
		if err != nil {
			return false
		}
		if exact.NumGroups() != ans.Result.NumGroups() {
			t.Logf("seed %d: group counts %d vs %d", seed, exact.NumGroups(), ans.Result.NumGroups())
			return false
		}
		for _, k := range exact.Keys() {
			eg, ag := exact.Group(k), ans.Result.Group(k)
			for i := range eg.Vals {
				if math.Abs(eg.Vals[i]-ag.Vals[i]) > 1e-6*(1+math.Abs(eg.Vals[i])) {
					t.Logf("seed %d: group %v agg %d %g != %g", seed, eg.Key, i, ag.Vals[i], eg.Vals[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: small group table sizes never exceed N·t (the paper's size bound
// for the default two-level hierarchy) and the metadata's RareRows matches
// the materialised tables.
func TestPropertyTableSizeBound(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDB(seed)
		rng := randx.New(seed + 5)
		frac := 0.005 + rng.Float64()*0.1
		p, err := NewSmallGroup(SmallGroupConfig{
			BaseRate:           0.02,
			SmallGroupFraction: frac,
			Seed:               seed + 6,
		}).Preprocess(db)
		if err != nil {
			return false
		}
		sgp := p.(*smallGroupPrepared)
		bound := int64(frac * float64(db.NumRows()))
		for i, tbl := range sgp.Tables() {
			if int64(tbl.NumRows()) > bound {
				t.Logf("seed %d: table %d has %d rows > bound %d", seed, i, tbl.NumRows(), bound)
				return false
			}
			if int64(tbl.NumRows()) != sgp.Meta().Columns()[i].RareRows {
				t.Logf("seed %d: table %d rows %d != meta %d", seed, i, tbl.NumRows(), sgp.Meta().Columns()[i].RareRows)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: smallness is monotonic (footnote 1): a group that is exact for
// grouping columns G stays exact when more grouping columns or predicates
// are added.
func TestPropertySmallnessMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDB(seed)
		p, err := NewSmallGroup(SmallGroupConfig{BaseRate: 0.05, Seed: seed + 7}).Preprocess(db)
		if err != nil {
			return false
		}
		sgp := p.(*smallGroupPrepared)
		base := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
		wide := &engine.Query{GroupBy: []string{"a", "b"}, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
		ansBase, err := sgp.Answer(base)
		if err != nil {
			return false
		}
		ansWide, err := sgp.Answer(wide)
		if err != nil {
			return false
		}
		exactA := make(map[engine.Value]bool)
		for _, g := range ansBase.Result.Groups() {
			if g.Exact {
				exactA[g.Key[0]] = true
			}
		}
		for _, g := range ansWide.Result.Groups() {
			if exactA[g.Key[0]] && !g.Exact {
				t.Logf("seed %d: group %v lost exactness when widening", seed, g.Key)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: confidence intervals always contain the point estimate, exact
// groups get zero-width intervals, and COUNT intervals never go negative.
func TestPropertyIntervalSanity(t *testing.T) {
	f := func(seed int64) bool {
		db := randomDB(seed)
		p, err := NewSmallGroup(SmallGroupConfig{BaseRate: 0.03, Seed: seed + 8}).Preprocess(db)
		if err != nil {
			return false
		}
		q := &engine.Query{GroupBy: []string{"a"}, Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "m"}}}
		ans, err := p.Answer(q)
		if err != nil {
			return false
		}
		for _, k := range ans.Result.Keys() {
			g := ans.Result.Group(k)
			for i := range g.Vals {
				iv := ans.Interval(k, i)
				if !iv.Contains(g.Vals[i]) {
					t.Logf("seed %d: CI %+v excludes estimate %g", seed, iv, g.Vals[i])
					return false
				}
				if g.Exact && iv.Width() != 0 {
					t.Logf("seed %d: exact group with CI width %g", seed, iv.Width())
					return false
				}
				if i == 0 && iv.Lo < 0 {
					t.Logf("seed %d: negative COUNT bound %g", seed, iv.Lo)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
