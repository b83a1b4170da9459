package experiments

import (
	"context"
	"fmt"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/workload"
)

// boundLevels are the error bounds the calibration study sweeps; the
// tightest forces the planner into the exact fallback on most queries, the
// loosest is satisfied by trimmed sample plans.
var boundLevels = []float64{0.01, 0.05, 0.10}

// Bounds runs the predicted-vs-achieved calibration study behind
// docs/ACCURACY.md: answer a predicate-free GROUP BY workload on SALES and
// TPC-H under each error bound, and report the planner's mean predicted
// error, the mean achieved error measured against the exact answers, the
// fraction of queries whose achieved error stays within the requested
// bound, and the mean fraction of base rows scanned (how hard the planner
// had to escalate).
func (r *Runner) Bounds() ([]*Figure, error) {
	sales, err := r.database("sales", salesZ, r.Scale.SalesRows)
	if err != nil {
		return nil, err
	}
	tpch, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	var out []*Figure
	for _, db := range []*engine.Database{sales, tpch} {
		f, err := r.boundsOn(db)
		if err != nil {
			return nil, fmt.Errorf("bounds on %s: %w", db.Name, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func (r *Runner) boundsOn(db *engine.Database) (*Figure, error) {
	prep, err := r.smallGroup(db, r.Scale.BaseRate, nil)
	if err != nil {
		return nil, err
	}
	// Predicate-free GROUP BY queries: the accuracy contract
	// (docs/ACCURACY.md) promises calibrated predictions only there, so the
	// calibration study measures exactly that regime.
	gen, err := workload.NewGenerator(db, workload.Config{
		GroupingColumns: 1,
		Aggregate:       engine.Count,
		MaxDistinct:     core.DefaultDistinctLimit,
		Seed:            r.Scale.Seed + 31,
	})
	if err != nil {
		return nil, err
	}
	queries := gen.Queries(r.Scale.QueriesPerConfig)

	f := &Figure{
		ID:     "bounds/" + db.Name,
		Title:  fmt.Sprintf("Planner calibration on %s: predicted vs achieved error per requested bound", db.Name),
		XLabel: "error_bound",
		YLabel: "mean relative error (and ratios)",
	}
	baseRows := float64(db.NumRows())
	var predicted, achieved, within, rowsFrac Series
	predicted.Name, achieved.Name = "predicted", "achieved"
	within.Name, rowsFrac.Name = "within-bound", "rows-scanned-frac"
	for _, bound := range boundLevels {
		f.Labels = append(f.Labels, fmt.Sprintf("%.2f", bound))
		var sumPred, sumAch, sumRows float64
		var n, ok int
		for _, q := range queries {
			exact, err := r.exact(db, q)
			if err != nil {
				return nil, err
			}
			if exact.NumGroups() == 0 {
				continue
			}
			ans, err := prep.AnswerBounds(context.Background(), q, core.Bounds{ErrorBound: bound})
			if err != nil {
				return nil, err
			}
			acc, err := metrics.Compare(exact, ans.Result, 0)
			if err != nil {
				return nil, err
			}
			sumPred += ans.Plan.Chosen.PredictedError
			sumAch += acc.RelErr
			sumRows += float64(ans.RowsRead) / baseRows
			if acc.RelErr <= bound {
				ok++
			}
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("no queries with non-empty exact answers on %s", db.Name)
		}
		predicted.Y = append(predicted.Y, sumPred/float64(n))
		achieved.Y = append(achieved.Y, sumAch/float64(n))
		within.Y = append(within.Y, float64(ok)/float64(n))
		rowsFrac.Y = append(rowsFrac.Y, sumRows/float64(n))
	}
	f.Series = []Series{predicted, achieved, within, rowsFrac}
	f.Notes = append(f.Notes,
		fmt.Sprintf("%d predicate-free 1-column COUNT group-bys, r=%g, achieved = mean relative error vs the exact answer", len(queries), r.Scale.BaseRate),
		"the contract (docs/ACCURACY.md): achieved stays at or below predicted; predicted stays at or below the requested bound")
	return f, nil
}
