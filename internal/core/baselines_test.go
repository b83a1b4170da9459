package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"dynsample/internal/congress"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/outlier"
	"dynsample/internal/scenario"
	"dynsample/internal/stats"
	"dynsample/internal/uniform"
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
// System.ApproxCtx; and the uniform family must plan toward an error bound.
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

	cases := []struct {
		st       core.Strategy
		weighted bool
	}{
		{uniform.New(uniform.Config{Rate: 0.02, Seed: 1}), false},
		{outlier.New(outlier.Config{Rate: 0.02, Measure: "l_extendedprice", Seed: 1}), true},
		{congress.New(congress.Config{Rate: 0.02, Columns: []string{"l_returnflag", "l_shipmode", "s_region"}, Seed: 1}), true},
		{weighted.New(weighted.Config{Rate: 0.02, Workload: train, Seed: 1}), true},
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
			restored, err := core.LoadSmallGroup(&saved)
			if err != nil {
				t.Fatal(err)
			}
			paths := []struct {
				name    string
				p       core.Prepared
				workers int
			}{{"workers=1", p, 1}, {"workers=4", p, 4}, {"restored", restored, 4}}
			for _, path := range paths {
				path.p.SetWorkers(path.workers)
				sys := core.NewSystem(db)
				sys.AddPrepared(c.st.Name(), path.p)
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
			if c.st.Name() != "uniform" {
				return
			}
			sys := core.NewSystem(db)
			sys.AddPrepared("uniform", p)
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
