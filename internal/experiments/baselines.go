package experiments

import (
	"fmt"

	"dynsample/internal/congress"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/weighted"
	"dynsample/internal/workload"
)

// Baselines goes beyond the paper's pairwise comparisons: every implemented
// strategy head to head on one workload, on a narrow candidate column set so
// that even the full (exponential) congress algorithm — which the paper
// could not run on its 245-column schema — participates. The workload-
// weighted baseline is trained on half the workload and evaluated, like the
// others, on the other half.
func (r *Runner) Baselines() (*Figure, error) {
	db, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	cols := []string{"p_brand", "p_category", "s_region", "o_orderpriority", "l_returnflag", "l_shipmode"}
	const g = 2
	rate := r.Scale.BaseRate
	matched := rate * (1 + AllocationRatio*g)

	gen, err := workload.NewGenerator(db, workload.Config{
		GroupingColumns: g,
		Predicates:      1,
		Aggregate:       engine.Count,
		Columns:         cols,
		MassSelectivity: true,
		Seed:            r.Scale.Seed + 1300,
	})
	if err != nil {
		return nil, err
	}
	queries := gen.Queries(2 * r.Scale.QueriesPerConfig)
	train, eval := queries[:len(queries)/2], queries[len(queries)/2:]
	// A baseline is a family with nothing in S over its own row selector.
	baseline := func(sel core.OverallBuilder) *core.SmallGroup {
		return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: matched, Columns: []string{}, Overall: sel})
	}

	type entry struct {
		label string
		st    *core.SmallGroup
	}
	entries := []entry{
		{"SmGroup", core.NewSmallGroup(core.SmallGroupConfig{
			BaseRate: rate, SmallGroupFraction: AllocationRatio * rate, Columns: cols, Seed: r.Scale.Seed + 1,
		})},
		{"Uniform", nil}, // matched per query by uniformMethod (shares the cache)
		{"BasicCongress", baseline(congress.Config{Columns: cols, Seed: r.Scale.Seed + 2})},
		{"FullCongress", baseline(congress.Config{Columns: cols, Variant: congress.Full, Seed: r.Scale.Seed + 3})},
		{"Weighted", baseline(weighted.Config{Workload: weighted.SQL(train), Seed: r.Scale.Seed + 4})},
	}

	fig := &Figure{
		ID: "baselines", Title: fmt.Sprintf("All strategies head to head on %s (COUNT, g=%d, %d columns, matched space %.2f%%)", db.Name, g, len(cols), matched*100),
		XLabel: "strategy", YLabel: "RelErr / PctGroups",
		Notes: []string{
			"beyond the paper: full congress is feasible on this narrow column set; weighted is trained on a held-out half of the workload",
		},
	}
	var methods []method
	for _, e := range entries {
		if e.st == nil {
			methods = append(methods, r.uniformMethod(db, rate))
			continue
		}
		p, err := r.prepared(db, "bl/"+e.label, e.st)
		if err != nil {
			return nil, err
		}
		methods = append(methods, prepMethod(e.label, p))
	}
	accs, err := r.evalQueries(db, eval, methods)
	if err != nil {
		return nil, err
	}
	var relY, pctY []float64
	for _, m := range methods {
		fig.Labels = append(fig.Labels, m.name)
		relY = append(relY, accs[m.name].RelErr)
		pctY = append(pctY, accs[m.name].PctGroups)
	}
	fig.Series = []Series{
		{Name: "RelErr", Y: relY},
		{Name: "PctGroups missed (%)", Y: pctY},
	}
	return fig, nil
}
