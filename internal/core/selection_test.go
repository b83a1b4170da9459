package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/scenario"
)

// Metamorphic checks of sample selection over generated tpch queries: each
// compares the plans one query gets under two requests that differ in one
// setting, so no expected plan is written down, and a refactor of selection
// must keep them.

// selectionRows and selectionRate size the tpch fixture the selection
// checks and BenchmarkAnswerUnbounded run over.
const (
	selectionRows = 200_000
	selectionRate = 0.01
)

var selectionDB = sync.OnceValues(func() (*engine.Database, error) {
	return scenario.Builtin("tpch", selectionRows, 2, 1)
})

// selectionSystem registers the small group family of the tpch fixture at
// one worker, with the scan rate pinned at rate rows/s (0: learned).
func selectionSystem(tb testing.TB, rate float64) (*core.System, string) {
	tb.Helper()
	db, err := selectionDB()
	if err != nil {
		tb.Fatal(err)
	}
	st := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: selectionRate, Seed: 1, Workers: 1, ScanRowsPerSecond: rate})
	sys := core.NewSystem(db)
	if err := sys.AddStrategy(st); err != nil {
		tb.Fatal(err)
	}
	return sys, st.Name()
}

// selectionCols are the tpch view's columns of at most 50 values: the
// candidates for grouping and predicates.
var selectionCols = []string{
	"l_quantity", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct",
	"p_mfgr", "p_brand", "p_category", "p_container", "p_size", "p_color", "p_retail_bucket",
	"s_nation", "s_region", "s_acctbal_bucket", "c_nation", "c_region", "c_mktsegment", "c_age_bucket",
	"o_orderpriority", "o_orderstatus", "o_ordermonth", "o_orderyear",
}

// selectionQueries draws n COUNT and SUM(l_extendedprice) group-bys over
// groupCols distinct columns of selectionCols (1 to 4 at random when
// groupCols is 0), a quarter of them filtered by one equality on a value a
// random fact row holds when preds is set.
func selectionQueries(tb testing.TB, db *engine.Database, seed int64, n, groupCols int, preds bool) []*engine.Query {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*engine.Query, n)
	for i := range qs {
		k := groupCols
		if k == 0 {
			k = 1 + rng.Intn(4)
		}
		q := &engine.Query{Aggs: []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_extendedprice"}}}
		for _, c := range rng.Perm(len(selectionCols))[:k] {
			q.GroupBy = append(q.GroupBy, selectionCols[c])
		}
		if preds && rng.Intn(4) == 0 {
			col := selectionCols[rng.Intn(len(selectionCols))]
			acc, err := db.Accessor(col)
			if err != nil {
				tb.Fatal(err)
			}
			q.Where = []engine.Predicate{engine.NewCmp(col, engine.Eq, acc.Value(rng.Intn(db.NumRows())))}
		}
		qs[i] = q
	}
	return qs
}

// underTimeout answers q with no bounds under a request deadline d from now.
func underTimeout(sys *core.System, strategy string, q *engine.Query, d time.Duration) (*core.Answer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return sys.ApproxCtx(ctx, strategy, q)
}

// TestAmpleDeadlineKeepsTheFullPlan: a 30 s request deadline, which every
// plan on the fixture fits, runs the plan a request without one runs and
// answers bit for bit as it does.
func TestAmpleDeadlineKeepsTheFullPlan(t *testing.T) {
	sys, strategy := selectionSystem(t, 0)
	for i, q := range selectionQueries(t, sys.DB(), 50, 256, 0, true) {
		want, err := sys.ApproxCtx(context.Background(), strategy, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := underTimeout(sys, strategy, q, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.Rewrite.SQL(), want.Rewrite.SQL(); g != w || got.Degraded {
			t.Fatalf("query %d under a 30s deadline ran (degraded=%v)\n%s\nwithout one\n%s", i, got.Degraded, g, w)
		}
		if core.ResultDigest(got.Result) != core.ResultDigest(want.Result) {
			t.Fatalf("query %d answers otherwise under a 30s deadline", i)
		}
	}
}

// TestLongerDeadlineNeverWorsensThePlan: with the scan rate pinned at 1 000
// rows/s, the overall sample alone (about 2 000 rows) takes 2 s and the
// budgets between 2 and 5 s separate the table prefixes. A longer
// request deadline never runs a plan predicted less accurate than a shorter
// one does, and is never degraded when the shorter one is not; and no plan
// that fits is predicted more accurate than the one that runs.
func TestLongerDeadlineNeverWorsensThePlan(t *testing.T) {
	sys, strategy := selectionSystem(t, 1000)
	var budgets []time.Duration
	for _, s := range []float64{1.5, 2.1, 2.4, 2.7, 3, 3.5, 4, 5, 30} {
		budgets = append(budgets, time.Duration(s*float64(time.Second)))
	}
	for i, q := range selectionQueries(t, sys.DB(), 51, 256, 0, true) {
		cands, _, err := sys.PreviewPlans(strategy, q, core.Bounds{})
		if err != nil {
			t.Fatal(err)
		}
		predicted := make(map[string]float64, len(cands))
		for _, c := range cands {
			predicted[c.Name] = c.PredictedError
		}
		// best is the smallest predicted error of a whole-sample plan that
		// surely fits budget, whatever the clock read since.
		best := func(budget time.Duration) float64 {
			e := math.Inf(1)
			for _, c := range cands {
				if !c.Exact && c.OverallFraction == 1 && c.PredictedLatency <= budget-10*time.Millisecond {
					e = math.Min(e, c.PredictedError)
				}
			}
			return e
		}
		prevErr, prevDegraded := math.Inf(1), true
		for _, budget := range budgets {
			ans, err := underTimeout(sys, strategy, q, budget)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, st := range ans.Rewrite.Steps {
				if st.MaxRows > 0 {
					t.Fatalf("query %d under %v scans a trimmed overall sample: %s", i, budget, ans.Rewrite.SQL())
				}
				names = append(names, st.Name)
			}
			e, ok := predicted[strings.Join(names, "+")]
			if !ok {
				t.Fatalf("query %d under %v ran %v, which is no candidate", i, budget, names)
			}
			if e > best(budget) {
				t.Fatalf("query %d under %v ran %v (predicted error %v), though a plan predicted at %v fits", i, budget, names, e, best(budget))
			}
			if e > prevErr || (ans.Degraded && !prevDegraded) {
				t.Fatalf("query %d under %v ran %v (predicted error %v, degraded=%v), worse than a shorter deadline's (%v, degraded=%v)",
					i, budget, names, e, ans.Degraded, prevErr, prevDegraded)
			}
			prevErr, prevDegraded = e, ans.Degraded
		}
		if prevDegraded {
			t.Fatalf("query %d is degraded under a 30s deadline at 1 000 rows/s", i)
		}
	}
}

// TestWiderErrorBoundNeverReadsMore: a wider error_bound admits every plan a
// narrower one does, so the plan it picks never scans more rows. The bounds
// are the query's own sample plans' predicted errors, at most six of them:
// a bound below them all picks the exact plan, whose 200 000-row scan would
// dominate the test's time.
func TestWiderErrorBoundNeverReadsMore(t *testing.T) {
	sys, strategy := selectionSystem(t, 25e6)
	for i, q := range selectionQueries(t, sys.DB(), 52, 256, 0, true) {
		cands, _, err := sys.PreviewPlans(strategy, q, core.Bounds{})
		if err != nil {
			t.Fatal(err)
		}
		var errs []float64
		for _, c := range cands {
			if !c.Exact {
				errs = append(errs, c.PredictedError)
			}
		}
		sort.Float64s(errs)
		prev := int64(math.MaxInt64)
		for j := range 6 {
			b := errs[j*(len(errs)-1)/5]
			ans, err := sys.ApproxBoundsCtx(context.Background(), strategy, q, core.Bounds{ErrorBound: b})
			if err != nil {
				t.Fatalf("query %d, error_bound %v: %v", i, b, err)
			}
			if rows := ans.Plan.Chosen.Rows; rows > prev || ans.Plan.Chosen.Exact {
				t.Fatalf("query %d: error_bound %v picked %s (%d rows), more than a narrower bound's %d", i, b, ans.Plan.Chosen.Name, rows, prev)
			}
			prev = ans.Plan.Chosen.Rows
		}
	}
}

// BenchmarkAnswerUnbounded times the unbounded request path, System.ApproxCtx
// on the tpch fixture at one worker, over 16 generated queries per number of
// grouping columns: with no deadline, and with the 30 s deadline a server's
// default query timeout puts on every request. The two sides run the same
// plan; the deadline side pays only for checking that the plan fits.
func BenchmarkAnswerUnbounded(b *testing.B) {
	sys, strategy := selectionSystem(b, 0)
	for _, side := range []string{"none", "deadline"} {
		for _, k := range []int{1, 2, 4} {
			qs := selectionQueries(b, sys.DB(), int64(k), 16, k, false)
			b.Run(fmt.Sprintf("%s/groupcols=%d", side, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := qs[i%len(qs)]
					var err error
					if side == "none" {
						_, err = sys.ApproxCtx(context.Background(), strategy, q)
					} else {
						_, err = underTimeout(sys, strategy, q, 30*time.Second)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
