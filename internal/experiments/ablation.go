package experiments

import (
	"fmt"

	"dynsample/internal/core"
)

// GammaAblation measures the empirical counterpart of Figure 3(a): RelErr of
// small group sampling as the allocation ratio γ varies, holding the total
// per-query sample space fixed (queries use 2 grouping columns, so a run at
// ratio γ gets an overall sample of R/(1+2γ) plus two small group tables).
func (r *Runner) GammaAblation() (*Figure, error) {
	db, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	const g = 2
	totalRate := r.Scale.BaseRate * (1 + AllocationRatio*g) // match the Fig 4 budget at γ=0.5

	queries, err := r.countWorkload(db, g, 1100)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID: "gamma", Title: fmt.Sprintf("Empirical RelErr vs allocation ratio on %s (g=%d, total space %.2f%%)", db.Name, g, totalRate*100),
		XLabel: "allocation ratio", YLabel: "RelErr",
		Notes: []string{
			"empirical check of Figure 3(a): ratio 0 equals uniform; the optimum is flat around 0.25-1.0",
		},
	}
	var y []float64
	for _, gamma := range []float64{0.125, 0.25, 0.5, 1.0, 2.0} {
		rate := totalRate / (1 + gamma*g)
		p, err := r.prepared(db, fmt.Sprintf("sg/gamma=%g", gamma), core.NewSmallGroup(core.SmallGroupConfig{
			BaseRate:           rate,
			SmallGroupFraction: gamma * rate,
			Seed:               r.Scale.Seed + 6,
		}))
		if err != nil {
			return nil, err
		}
		accs, err := r.evalQueries(db, queries, []method{prepMethod("SmGroup", p)})
		if err != nil {
			return nil, err
		}
		fig.Labels = append(fig.Labels, fmt.Sprintf("%.3f", gamma))
		y = append(y, accs["SmGroup"].RelErr)
	}
	// γ=0 reference: a plain uniform sample of the whole budget.
	up, err := r.prepared(db, fmt.Sprintf("uni/r=%g", totalRate), core.NewSmallGroup(core.SmallGroupConfig{BaseRate: totalRate, Columns: []string{}, Seed: r.Scale.Seed + 2}))
	if err != nil {
		return nil, err
	}
	accs, err := r.evalQueries(db, queries, []method{prepMethod("Uniform", up)})
	if err != nil {
		return nil, err
	}
	fig.Labels = append([]string{"0 (uniform)"}, fig.Labels...)
	fig.Series = []Series{{Name: "SmGroup", Y: append([]float64{accs["Uniform"].RelErr}, y...)}}
	return fig, nil
}

// TauAblation varies the distinct-value cutoff τ (5000 in the paper) and
// reports how many columns survive into S and the resulting accuracy.
func (r *Runner) TauAblation() (*Figure, error) {
	db, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	queries, err := r.countWorkload(db, 2, 1200)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "tau", Title: fmt.Sprintf("Effect of the distinct-value cutoff tau on %s (r=%g, g=2)", db.Name, r.Scale.BaseRate),
		XLabel: "tau", YLabel: "RelErr / |S| / rows",
		Notes: []string{
			"tau trades pre-processing memory for coverage; the paper fixes tau=5000",
		},
	}
	var relY, sY, rowsY []float64
	for _, tau := range []int{20, 200, 5000} {
		p, err := r.prepared(db, fmt.Sprintf("sg/tau=%d", tau), core.NewSmallGroup(core.SmallGroupConfig{
			BaseRate:           r.Scale.BaseRate,
			SmallGroupFraction: AllocationRatio * r.Scale.BaseRate,
			DistinctLimit:      tau,
			Seed:               r.Scale.Seed + 7,
		}))
		if err != nil {
			return nil, err
		}
		accs, err := r.evalQueries(db, queries, []method{prepMethod("SmGroup", p)})
		if err != nil {
			return nil, err
		}
		fig.Labels = append(fig.Labels, fmt.Sprintf("%d", tau))
		relY = append(relY, accs["SmGroup"].RelErr)
		sY = append(sY, float64(p.Meta().Width()))
		rowsY = append(rowsY, float64(p.SampleRows()))
	}
	fig.Series = []Series{
		{Name: "RelErr", Y: relY},
		{Name: "|S| (tables)", Y: sY},
		{Name: "sample rows", Y: rowsY},
	}
	return fig, nil
}
