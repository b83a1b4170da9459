// Sumoutliers demonstrates §5.3.3: SUM aggregation over a heavy-tailed
// revenue column, where a handful of giant orders dominate the total. Plain
// uniform sampling has huge variance (it occasionally catches an outlier and
// scales it up 100x); outlier indexing stores the extreme rows exactly; and
// small group sampling *enhanced* with an outlier-indexed overall sample
// combines that with exact answers for rare groups.
package main

import (
	"fmt"
	"log"
	"math"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/outlier"
	"dynsample/internal/scenario"
	"dynsample/internal/workload"
)

func main() {
	db, err := scenario.Builtin("sales", 60000, 1.2, 11)
	if err != nil {
		log.Fatal(err)
	}
	const measure = "sale_amount"

	// How skewed is the measure?
	acc, _ := db.Accessor(measure)
	var sum, max float64
	for i := 0; i < db.NumRows(); i++ {
		v := acc.Float(i)
		sum += v
		if v > max {
			max = v
		}
	}
	fmt.Printf("measure %s: mean %.0f, max %.0f (%.0fx the mean)\n\n", measure, sum/float64(db.NumRows()), max, max*float64(db.NumRows())/sum)

	const rate = 0.015
	strategies := []struct {
		name string
		prep func() (core.Prepared, error)
	}{
		{"uniform", func() (core.Prepared, error) {
			return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: rate * 2, Columns: []string{}, Seed: 12}).Preprocess(db)
		}},
		{"outlier indexing", func() (core.Prepared, error) {
			return core.NewSmallGroup(core.SmallGroupConfig{
				BaseRate: rate * 2,
				Columns:  []string{},
				Overall:  outlier.Config{Measure: measure, Seed: 12},
			}).Preprocess(db)
		}},
		{"small group + outlier", func() (core.Prepared, error) {
			return core.NewSmallGroup(core.SmallGroupConfig{
				BaseRate: rate,
				Seed:     12,
				Overall:  outlier.Config{Measure: measure, Seed: 13},
			}).Preprocess(db)
		}},
	}

	gen, err := workload.NewGenerator(db, workload.Config{
		GroupingColumns: 2,
		Predicates:      1,
		Aggregate:       engine.Sum,
		Measures:        []string{measure},
		MassSelectivity: true,
		Seed:            13,
	})
	if err != nil {
		log.Fatal(err)
	}
	queries := gen.Queries(15)

	fmt.Printf("%-24s%-12s%-12s%-14s\n", "strategy", "RelErr", "missed%", "worst group")
	for _, s := range strategies {
		p, err := s.prep()
		if err != nil {
			log.Fatal(err)
		}
		var accs []metrics.Accuracy
		worst := 0.0
		for _, q := range queries {
			exact, err := engine.ExecuteExact(db, q)
			if err != nil {
				log.Fatal(err)
			}
			if exact.NumGroups() == 0 {
				continue
			}
			ans, err := p.Answer(q)
			if err != nil {
				log.Fatal(err)
			}
			a, err := metrics.Compare(exact, ans.Result, 0)
			if err != nil {
				log.Fatal(err)
			}
			accs = append(accs, a)
			for _, k := range exact.Keys() {
				if g := ans.Result.Group(k); g != nil {
					e := exact.Group(k).Vals[0]
					if e > 0 {
						if rel := math.Abs(g.Vals[0]-e) / e; rel > worst {
							worst = rel
						}
					}
				}
			}
		}
		m := metrics.Mean(accs)
		fmt.Printf("%-24s%-12.4f%-12.1f%-14.2f\n", s.name, m.RelErr, m.PctGroups, worst)
	}
	fmt.Println("\npaper (§5.3.3): small group sampling enhanced with outlier indexing beats")
	fmt.Println("outlier indexing alone (RelErr 0.79 vs 1.08; missed groups 37% vs 55%),")
	fmt.Println("and uniform sampling is comparable to plain outlier indexing.")
}
