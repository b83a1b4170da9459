package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynsample/internal/congress"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/outlier"
	"dynsample/internal/scenario"
	"dynsample/internal/stats"
	"dynsample/internal/weighted"
	"dynsample/internal/workload"
)

// TestBaselinesThroughEveryPath holds each single-table baseline — a family
// with nothing in S — to the runtime the baselines had before they became
// families: one plan step over the sample table, scaled by N/rows when the
// table is unweighted (1 when its rows carry weights), plus
// ConfidenceIntervals at the default level. Over a generated workload the
// answers must be bit-identical — groups, values, intervals, exact flags — at
// 1 and 4 workers and after a save/load round trip, all through
// System.ApproxCtx. The restored family saves back to the bytes it was
// loaded from and records the config that built it; and the uniform family
// must plan toward an error bound. Each then goes through every path
// (throughEveryPath), the online ones for the uniform family.
func TestBaselinesThroughEveryPath(t *testing.T) {
	db, err := scenario.Builtin("tpch", 30000, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(cfg workload.Config, n int) []*engine.Query {
		cfg.Predicates, cfg.MassSelectivity, cfg.MaxDistinct = 1, true, core.DefaultDistinctLimit
		g, err := workload.NewGenerator(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g.Queries(n)
	}
	queries := append(gen(workload.Config{GroupingColumns: 2, Aggregate: engine.Count, Seed: 1}, 6),
		gen(workload.Config{GroupingColumns: 1, Aggregate: engine.Sum, Measures: []string{"l_extendedprice"}, Seed: 2}, 6)...)
	queries = append(queries, &engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_extendedprice"}}})
	train := gen(workload.Config{GroupingColumns: 1, Aggregate: engine.Count, Seed: 3}, 10)

	baseline := func(sel core.OverallBuilder) *core.SmallGroup {
		return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Columns: []string{}, Overall: sel, Seed: 1})
	}
	congressCols := []string{"l_returnflag", "l_shipmode", "s_region"}
	cases := []struct {
		st       *core.SmallGroup
		weighted bool
	}{
		{baseline(nil), false},
		{baseline(outlier.Config{Measure: "l_extendedprice", Seed: 1}), true},
		{baseline(congress.Config{Columns: congressCols, Seed: 1}), true},
		{baseline(congress.Config{Columns: congressCols, Variant: congress.Full, Seed: 1}), true},
		{baseline(weighted.Config{Workload: weighted.SQL(train), Seed: 1}), true},
	}
	for _, c := range cases {
		t.Run(c.st.Name(), func(t *testing.T) {
			p, err := c.st.Preprocess(db)
			if err != nil {
				t.Fatal(err)
			}
			tables := core.FamilyTables(p)
			if len(tables) != 1 || p.Meta().Width() != 0 {
				t.Fatalf("family of %d tables, |S| = %d; want the overall sample alone", len(tables), p.Meta().Width())
			}
			tbl, scale := tables[0], 1.0
			if !c.weighted {
				scale = float64(db.NumRows()) / float64(tbl.NumRows())
			}
			var saved bytes.Buffer
			if err := core.SaveSmallGroup(&saved, p); err != nil {
				t.Fatal(err)
			}
			restored, err := core.LoadSmallGroup(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var resaved bytes.Buffer
			if err := core.SaveSmallGroup(&resaved, restored); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
				t.Fatalf("the restored family saves to %d bytes that differ from the %d it was loaded from", resaved.Len(), saved.Len())
			}
			if err := c.st.CheckFamily(restored); err != nil {
				t.Fatalf("the restored family does not record its config: %v", err)
			}
			paths := []struct {
				name    string
				p       core.Prepared
				workers int
			}{{"workers=1", p, 1}, {"workers=4", p, 4}, {"restored", restored, 4}}
			for _, path := range paths {
				path.p.SetWorkers(path.workers)
				sys := core.NewSystem(db)
				if err := sys.AddPrepared(c.st.Name(), path.p); err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					got, err := sys.ApproxCtx(context.Background(), c.st.Name(), q)
					if err != nil {
						t.Fatalf("%s query %d: %v", path.name, qi, err)
					}
					want, ivs := singleSample(t, tbl, scale, q)
					if err := sameAnswer(got, want, ivs); err != nil {
						t.Errorf("%s query %d (%s): %v", path.name, qi, q, err)
					}
				}
			}
			throughEveryPath(t, c.st, c.st.Name() == "uniform", queries)
			if c.st.Name() != "uniform" {
				return
			}
			sys := core.NewSystem(db)
			if err := sys.AddPrepared("uniform", p); err != nil {
				t.Fatal(err)
			}
			ans, err := sys.ApproxBoundsCtx(context.Background(), "uniform", queries[0], core.Bounds{ErrorBound: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if ans.Plan == nil || len(ans.Plan.Candidates) == 0 {
				t.Fatalf("a bounded query on the uniform family returned no plan decision: %+v", ans.Plan)
			}
		})
	}
}

// singleSample is the runtime the baselines had: one unfiltered step over the
// flat sample table, then the intervals at the default level.
func singleSample(t *testing.T, tbl *engine.Table, scale float64, q *engine.Query) (*engine.Result, map[engine.GroupKey][]stats.Interval) {
	t.Helper()
	res, _, err := core.ExecutePlan(&core.RewritePlan{Query: q, Steps: []core.RewriteStep{core.StepFor(tbl, scale)}})
	if err != nil {
		t.Fatal(err)
	}
	return res, core.ConfidenceIntervals(res, 0)
}

// sameAnswer reports the first difference between an answer and the
// reference result and intervals, comparing floats bit for bit.
func sameAnswer(got *core.Answer, want *engine.Result, ivs map[engine.GroupKey][]stats.Interval) error {
	if got.Result.NumGroups() != want.NumGroups() {
		return fmt.Errorf("%d groups, want %d", got.Result.NumGroups(), want.NumGroups())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, k := range want.Keys() {
		w, g := want.Group(k), got.Result.Group(k)
		if g == nil {
			return fmt.Errorf("group %v missing", w.Key)
		}
		if g.Exact != w.Exact {
			return fmt.Errorf("group %v exact %v, want %v", w.Key, g.Exact, w.Exact)
		}
		for i := range w.Vals {
			gi, wi := got.Interval(k, i), ivs[k][i]
			if !same(g.Vals[i], w.Vals[i]) || !same(gi.Lo, wi.Lo) || !same(gi.Hi, wi.Hi) || gi.Level != wi.Level {
				return fmt.Errorf("group %v agg %d: %v %+v, want %v %+v", w.Key, i, g.Vals[i], gi, w.Vals[i], wi)
			}
		}
	}
	return nil
}

// TestEveryFamilyRoundTrips saves each kind of sample family, loads it and
// saves it again. The second save is byte-identical to the first; the loaded
// family records the config that built it, so that config's CheckFamily
// accepts it and another's does not; and, bound to a system over the base,
// it answers a workload bit for bit as the fresh build does — groups,
// values, intervals and exact flags. Each config's name is the one its kind
// had before names were derived. Each family then goes through every path
// (throughEveryPath), the online ones where online maintenance supports it.
func TestEveryFamilyRoundTrips(t *testing.T) {
	db, err := scenario.Builtin("tpch", 30000, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(db, workload.Config{GroupingColumns: 2, Predicates: 1, Aggregate: engine.Sum,
		Measures: []string{"l_extendedprice"}, MassSelectivity: true, MaxDistinct: core.DefaultDistinctLimit, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := g.Queries(8)
	cols := []string{"l_returnflag", "l_shipmode", "s_region"}
	train := []string{"SELECT COUNT(*) FROM T WHERE l_shipmode IN ('l_shipmode_003', 'l_shipmode_005')"}
	baseline := func(sel core.OverallBuilder) core.SmallGroupConfig {
		return core.SmallGroupConfig{BaseRate: 0.02, Columns: []string{}, Overall: sel, Seed: 1}
	}
	cases := []struct {
		name string
		cfg  core.SmallGroupConfig
	}{
		{"smallgroup", core.SmallGroupConfig{BaseRate: 0.02, SmallGroupFraction: 0.02, Seed: 1,
			Pairs:  [][2]string{{"l_returnflag", "l_shipmode"}},
			Levels: []core.HierarchyLevel{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.02, Rate: 0.5}}}},
		{"smallgroup", core.SmallGroupConfig{BaseRate: 0.02, Seed: 1, Overall: outlier.Config{Measure: "l_extendedprice", Seed: 2}}},
		{"smallgroup", core.SmallGroupConfig{BaseRate: 0.02, Seed: 1, Pairs: [][2]string{{"l_returnflag", "l_shipmode"}}}},
		{"uniform", baseline(nil)},
		{"outlier", baseline(outlier.Config{Measure: "l_extendedprice", Seed: 2})},
		{"congress-basic", baseline(congress.Config{Columns: cols, Seed: 3})},
		{"congress-full", baseline(congress.Config{Columns: cols, Variant: congress.Full, Seed: 4})},
		{"weighted", baseline(weighted.Config{Workload: train, Seed: 5})},
		{"smallgroup", core.SmallGroupConfig{BaseRate: 0.02, Seed: 1}},
	}
	for ci, c := range cases {
		st := core.NewSmallGroup(c.cfg)
		if st.Name() != c.name {
			t.Errorf("%+v is named %q, want %q", c.cfg, st.Name(), c.name)
		}
		fresh, err := st.Preprocess(db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var saved, resaved bytes.Buffer
		if err := core.SaveSmallGroup(&saved, fresh); err != nil {
			t.Fatal(err)
		}
		restored, err := core.LoadSmallGroup(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.SaveSmallGroup(&resaved, restored); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
			t.Errorf("%s: the restored family saves to %d bytes that differ from the %d it was loaded from", c.name, resaved.Len(), saved.Len())
		}
		if err := st.CheckFamily(restored); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		other := c.cfg
		other.Seed++
		if err := core.NewSmallGroup(other).CheckFamily(restored); err == nil || !strings.Contains(err.Error(), "Seed") {
			t.Errorf("%s: a config with another Seed accepted the family: %v", c.name, err)
		}
		if err := core.NewSystem(db).AddPrepared(c.name, restored); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, err := fresh.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			ivs := make(map[engine.GroupKey][]stats.Interval)
			for _, k := range want.Result.Keys() {
				for i := range q.Aggs {
					ivs[k] = append(ivs[k], want.Interval(k, i))
				}
			}
			if err := sameAnswer(got, want.Result, ivs); err != nil {
				t.Errorf("%s query %d (%s): %v", c.name, qi, q, err)
			}
		}
		t.Run(fmt.Sprintf("%s/paths/case=%d", c.name, ci), func(t *testing.T) {
			throughEveryPath(t, st, len(c.cfg.Levels) <= 1 && c.cfg.Overall == nil, queries)
		})
	}
}
