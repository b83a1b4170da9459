package experiments

import (
	"fmt"
	"time"

	"dynsample/internal/congress"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/outlier"
)

// Fig9 reproduces Figure 9: the speedup of small group sampling over exact
// execution as a function of the number of grouping columns, on the larger
// TPCH5G1.5z database. Uniform sampling's overall speedup is reported as a
// note (the paper: ~9.5x small group, ~11.5x uniform).
func (r *Runner) Fig9() (*Figure, error) {
	db, err := r.database("tpch", 1.5, r.Scale.TPCHSF5Rows)
	if err != nil {
		return nil, err
	}
	sg, err := r.smallGroup(db, r.Scale.BaseRate, nil)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID: "9", Title: fmt.Sprintf("Speedup of small group sampling vs exact execution on TPCH5G1.5z (r=%g)", r.Scale.BaseRate),
		XLabel: "grouping columns", YLabel: "speedup (x)",
		Notes: []string{
			"paper: ~14x at 1 grouping column falling to ~8x at 4 (more small group tables per query)",
			"absolute speedups are larger here: the in-memory engine executes pre-joined sample synopses",
			"with no per-query DBMS overhead, so speedup tracks the data-volume ratio; the paper's server",
			"joined unreduced dimension tables at runtime, capping its speedup near 10x",
		},
	}
	var sgY []float64
	var totalExact, totalSG, totalUni time.Duration
	for g := 1; g <= 4; g++ {
		queries, err := r.countWorkload(db, g, 1000+g)
		if err != nil {
			return nil, err
		}
		u, err := r.uniformMatched(db, r.Scale.BaseRate, g)
		if err != nil {
			return nil, err
		}
		var exactT, sgT time.Duration
		for _, q := range queries {
			start := time.Now()
			if _, err := engine.ExecuteExact(db, q); err != nil {
				return nil, err
			}
			exactT += time.Since(start)

			ans, err := sg.Answer(q)
			if err != nil {
				return nil, err
			}
			sgT += ans.Elapsed

			uans, err := u.Answer(q)
			if err != nil {
				return nil, err
			}
			totalUni += uans.Elapsed
		}
		totalExact += exactT
		totalSG += sgT
		fig.Labels = append(fig.Labels, fmt.Sprintf("%d", g))
		sgY = append(sgY, float64(exactT)/float64(sgT))
	}
	fig.Series = []Series{{Name: "SmGroup speedup", Y: sgY}}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("measured overall: small group %.1fx, uniform %.1fx (paper: 9.49x and 11.53x)",
			float64(totalExact)/float64(totalSG), float64(totalExact)/float64(totalUni)))
	return fig, nil
}

// Preprocess reproduces the §5.4.2 comparison: pre-processing time and
// sample-table space for every strategy at the base rate, plus small group
// sampling at a 0.25% rate (the paper's space-reduction example).
func (r *Runner) Preprocess() (*Figure, error) {
	db, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	rate := r.Scale.BaseRate
	baseBytes := db.TotalBytes()

	type entry struct {
		label string
		st    *core.SmallGroup
	}
	entries := []entry{
		{"uniform", core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate, Columns: []string{}, Seed: 1})},
		{"outlier", core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate, Columns: []string{}, Overall: outlier.Config{Measure: "l_extendedprice", Seed: 1}})},
		{"congress-basic", core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate, Columns: []string{},
			Overall: congress.Config{Columns: []string{"l_returnflag", "l_shipmode", "s_region", "o_orderpriority", "p_brand"}, Seed: 1}})},
		{"smallgroup", core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate, Seed: 1})},
		{"smallgroup@0.25%", core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate / 4, Seed: 1})},
	}
	fig := &Figure{
		ID: "prep", Title: fmt.Sprintf("Pre-processing cost on %s (base rate %g)", db.Name, rate),
		XLabel: "strategy", YLabel: "seconds / space",
		Notes: []string{
			"paper: uniform and outlier build within minutes; congress and small group are slower but not exorbitant",
			"paper: small group space overhead ~6% of the TPC-H database at r=1%, ~1.8% at r=0.25%",
			"every sample table, the overall sample too, is stored as a fact slice joined to the base's dimension tables (§5.2.2)",
		},
	}
	var secs, space, rows []float64
	for _, e := range entries {
		start := time.Now()
		p, err := e.st.Preprocess(db)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.label, err)
		}
		el := time.Since(start)
		fig.Labels = append(fig.Labels, e.label)
		secs = append(secs, el.Seconds())
		space = append(space, 100*float64(p.SampleBytes())/float64(baseBytes))
		rows = append(rows, float64(p.SampleRows()))
	}
	fig.Series = []Series{
		{Name: "prep seconds", Y: secs},
		{Name: "space (% of db)", Y: space},
		{Name: "sample rows", Y: rows},
	}
	return fig, nil
}
