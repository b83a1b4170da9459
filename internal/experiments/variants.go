package experiments

import (
	"fmt"

	"dynsample/internal/core"
)

// Levels is the ablation DESIGN.md commits to for the §4.2.3 multi-level
// hierarchy: the default two-level scheme against a three-level scheme
// (100% of small groups, 25% of medium groups) at the same base rate.
func (r *Runner) Levels() (*Figure, error) {
	db, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	rate := r.Scale.BaseRate
	queries, err := r.countWorkload(db, 2, 1400)
	if err != nil {
		return nil, err
	}

	type entry struct {
		label string
		cfg   core.SmallGroupConfig
	}
	entries := []entry{
		{"two-level (paper)", core.SmallGroupConfig{
			BaseRate: rate, SmallGroupFraction: AllocationRatio * rate, Seed: r.Scale.Seed + 1,
		}},
		{"three-level", core.SmallGroupConfig{
			BaseRate: rate, Seed: r.Scale.Seed + 1,
			Levels: []core.HierarchyLevel{
				{MaxFraction: AllocationRatio * rate, Rate: 1},
				{MaxFraction: 3 * AllocationRatio * rate, Rate: 0.25},
			},
		}},
	}

	fig := &Figure{
		ID: "levels", Title: fmt.Sprintf("Small group sampling variants on %s (COUNT, g=2, r=%g)", db.Name, rate),
		XLabel: "variant", YLabel: "RelErr / PctGroups / rows",
		Notes: []string{
			"three-level adds a 25%-sampled medium band (§4.2.3 extension); its extra rows are reported",
		},
	}
	var relY, pctY, rowsY []float64
	for _, e := range entries {
		p, err := r.prepared(db, "lv/"+e.label, core.NewSmallGroup(e.cfg))
		if err != nil {
			return nil, err
		}
		accs, err := r.evalQueries(db, queries, []method{prepMethod(e.label, p)})
		if err != nil {
			return nil, err
		}
		fig.Labels = append(fig.Labels, e.label)
		relY = append(relY, accs[e.label].RelErr)
		pctY = append(pctY, accs[e.label].PctGroups)
		rowsY = append(rowsY, float64(p.SampleRows()))
	}
	fig.Series = []Series{
		{Name: "RelErr", Y: relY},
		{Name: "PctGroups missed (%)", Y: pctY},
		{Name: "sample rows", Y: rowsY},
	}
	return fig, nil
}
