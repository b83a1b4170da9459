package experiments

import (
	"fmt"

	"dynsample/internal/congress"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/metrics"
	"dynsample/internal/outlier"
	"dynsample/internal/workload"
)

// methodsSmallGroupVsUniform builds the two standard competitors over db at
// the runner's base rate, with uniform's rate matched per query (§5.3.1).
func (r *Runner) methodsSmallGroupVsUniform(db *engine.Database, rate float64) ([]method, error) {
	sg, err := r.smallGroup(db, rate, nil)
	if err != nil {
		return nil, err
	}
	return []method{prepMethod("SmGroup", sg), r.uniformMethod(db, rate)}, nil
}

// Fig4 reproduces Figure 4: RelErr (4a) and PctGroups (4b) vs the number of
// grouping columns for small group sampling vs uniform sampling on
// TPCH1G2.0z COUNT queries at a 1% base rate.
func (r *Runner) Fig4() ([]*Figure, error) {
	db, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	methods, err := r.methodsSmallGroupVsUniform(db, r.Scale.BaseRate)
	if err != nil {
		return nil, err
	}
	series := newSeriesPair("SmGroup", "Uniform")
	for g := 1; g <= 4; g++ {
		queries, err := r.countWorkload(db, g, 100+g)
		if err != nil {
			return nil, err
		}
		accs, err := r.evalQueries(db, queries, methods)
		if err != nil {
			return nil, err
		}
		series.add(fmt.Sprintf("%d", g), accs)
	}
	title := fmt.Sprintf("SmGroup vs Uniform on %s (COUNT, r=%g)", db.Name, r.Scale.BaseRate)
	notes := []string{
		"paper: both metrics rise with grouping columns, much faster for uniform",
		"paper: at 4 grouping columns uniform misses >75% of groups, small group <15%",
	}
	return series.into(
		&Figure{ID: "4a", Title: title, XLabel: "grouping columns", YLabel: "RelErr", Notes: notes},
		&Figure{ID: "4b", Title: title, XLabel: "grouping columns", YLabel: "PctGroups missed (%)", Notes: notes}), nil
}

// seriesPair accumulates a RelErr figure's and a PctGroups figure's series:
// one point per x label, one series per named method.
type seriesPair struct {
	labels   []string
	names    []string
	rel, pct map[string][]float64
}

func newSeriesPair(names ...string) *seriesPair {
	return &seriesPair{names: names, rel: map[string][]float64{}, pct: map[string][]float64{}}
}

func (s *seriesPair) add(label string, accs map[string]metrics.Accuracy) {
	s.labels = append(s.labels, label)
	for _, name := range s.names {
		s.rel[name] = append(s.rel[name], accs[name].RelErr)
		s.pct[name] = append(s.pct[name], accs[name].PctGroups)
	}
}

// into sets the two figures' labels and series and returns them.
func (s *seriesPair) into(rel, pct *Figure) []*Figure {
	rel.Labels, pct.Labels = s.labels, s.labels
	for _, name := range s.names {
		rel.Series = append(rel.Series, Series{Name: name, Y: s.rel[name]})
		pct.Series = append(pct.Series, Series{Name: name, Y: s.pct[name]})
	}
	return []*Figure{rel, pct}
}

// selectivityBins are the Figure 5 x-axis bucket upper bounds, as fractions
// of the database (.02% .. 1.28%, log scale).
var selectivityBins = []float64{0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128}

func selectivityLabel(i int) string {
	lo := 0.0
	if i > 0 {
		lo = selectivityBins[i-1]
	}
	return fmt.Sprintf("%.2f%%-%.2f%%", lo*100, selectivityBins[i]*100)
}

// Fig5 reproduces Figure 5: RelErr and PctGroups vs per-group selectivity on
// the SALES database.
func (r *Runner) Fig5() ([]*Figure, error) {
	db, err := r.database("sales", salesZ, r.Scale.SalesRows)
	if err != nil {
		return nil, err
	}
	methods, err := r.methodsSmallGroupVsUniform(db, r.Scale.BaseRate)
	if err != nil {
		return nil, err
	}

	// Mixed workload across grouping-column counts to populate every bucket.
	buckets := make([][]*engine.Query, len(selectivityBins))
	for g := 1; g <= 4; g++ {
		queries, err := r.countWorkload(db, g, 500+g)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			exact, err := r.exact(db, q)
			if err != nil {
				return nil, err
			}
			if exact.NumGroups() == 0 {
				continue
			}
			sel := metrics.PerGroupSelectivity(exact, db.NumRows())
			for i, hi := range selectivityBins { // larger than the plotted range: dropped
				if sel <= hi {
					buckets[i] = append(buckets[i], q)
					break
				}
			}
		}
	}

	rel := &Figure{
		ID: "5-relerr", Title: fmt.Sprintf("SmGroup vs Uniform on %s by per-group selectivity (COUNT, r=%g)", db.Name, r.Scale.BaseRate),
		XLabel: "per-group selectivity", YLabel: "RelErr",
		Notes: []string{"paper: small group sampling consistently better across the selectivity range"},
	}
	pct := &Figure{
		ID: "5-pctgroups", Title: rel.Title,
		XLabel: "per-group selectivity", YLabel: "PctGroups missed (%)",
	}
	series := newSeriesPair("SmGroup", "Uniform")
	for i, queries := range buckets {
		if len(queries) == 0 {
			continue
		}
		accs, err := r.evalQueries(db, queries, methods)
		if err != nil {
			return nil, err
		}
		series.add(selectivityLabel(i), accs)
	}
	return series.into(rel, pct), nil
}

// Fig6 reproduces Figure 6: RelErr vs the Zipf skew parameter on the
// TPCH1Gyz series.
func (r *Runner) Fig6() (*Figure, error) {
	fig := &Figure{
		ID: "6", Title: fmt.Sprintf("RelErr vs skew on TPCH1Gyz (COUNT, r=%g)", r.Scale.BaseRate),
		XLabel: "skew parameter z", YLabel: "RelErr",
		Notes: []string{
			"paper: uniform slightly ahead at z=1.0; small group clearly better at z>=1.5",
			"paper: uniform partially recovers at very high skew (predicates filter rare values out)",
		},
	}
	var smY, unY []float64
	for _, z := range []float64{1.0, 1.5, 2.0, 2.5} {
		db, err := r.database("tpch", z, r.Scale.TPCHSF1Rows)
		if err != nil {
			return nil, err
		}
		accs, err := r.smallGroupVsUniformG23(db, r.Scale.BaseRate, 600)
		if err != nil {
			return nil, err
		}
		fig.Labels = append(fig.Labels, fmt.Sprintf("%.1f", z))
		smY = append(smY, accs["SmGroup"].RelErr)
		unY = append(unY, accs["Uniform"].RelErr)
	}
	fig.Series = []Series{{Name: "SmGroup", Y: smY}, {Name: "Uniform", Y: unY}}
	return fig, nil
}

// smallGroupVsUniformG23 is Figures 6 and 7's measurement: small group vs
// matched uniform sampling at rate, averaged over the COUNT workloads with 2
// and 3 grouping columns (seeded at seedOffset+g).
func (r *Runner) smallGroupVsUniformG23(db *engine.Database, rate float64, seedOffset int) (map[string]metrics.Accuracy, error) {
	methods, err := r.methodsSmallGroupVsUniform(db, rate)
	if err != nil {
		return nil, err
	}
	return r.evalAveraged(db, []int{2, 3}, func(g int) ([]*engine.Query, error) {
		return r.countWorkload(db, g, seedOffset+g)
	}, methods)
}

// Fig7 reproduces Figure 7: RelErr and PctGroups vs the base sampling rate
// on TPCH1G2.0z.
func (r *Runner) Fig7() ([]*Figure, error) {
	db, err := r.database("tpch", 2.0, r.Scale.TPCHSF1Rows)
	if err != nil {
		return nil, err
	}
	series := newSeriesPair("SmGroup", "Uniform")
	for _, rate := range []float64{0.0025, 0.005, 0.01, 0.02, 0.04} {
		accs, err := r.smallGroupVsUniformG23(db, rate, 700)
		if err != nil {
			return nil, err
		}
		series.add(fmt.Sprintf("%.2f%%", rate*100), accs)
	}
	title := fmt.Sprintf("Error vs base sampling rate on %s (COUNT)", db.Name)
	return series.into(
		&Figure{ID: "7-relerr", Title: title, XLabel: "base sampling rate", YLabel: "RelErr",
			Notes: []string{"paper: both methods degrade smoothly as the rate falls; small group consistently better"}},
		&Figure{ID: "7-pctgroups", Title: title, XLabel: "base sampling rate", YLabel: "PctGroups missed (%)"}), nil
}

// salesRestrictedColumns picks the Figure 8 column subset: the fact table's
// direct columns plus four of the six dimensions (~120 columns), mirroring
// the paper's restriction ("we picked four dimension tables plus the fact
// table ... 120 columns in all").
func salesRestrictedColumns(db *engine.Database) []string {
	keep := map[string]bool{"product": true, "store": true, "customer": true, "promotion": true}
	dimOf := make(map[string]string)
	for _, d := range db.Dims {
		for _, c := range d.Table.Columns() {
			dimOf[c.Name] = d.Table.Name
		}
	}
	var cols []string
	for _, c := range db.Columns() {
		dim, isDim := dimOf[c]
		if !isDim || keep[dim] {
			cols = append(cols, c)
		}
	}
	return cols
}

// Fig8 reproduces Figure 8: RelErr and PctGroups vs grouping columns for
// small group sampling vs basic congress vs uniform on SALES restricted to
// ~120 columns.
func (r *Runner) Fig8() ([]*Figure, error) {
	db, err := r.database("sales", salesZ, r.Scale.SalesRows)
	if err != nil {
		return nil, err
	}
	var grpCols []string
	for _, c := range salesRestrictedColumns(db) {
		if c != "sale_amount" && c != "units" && c != "margin" { // the measures
			grpCols = append(grpCols, c)
		}
	}

	sg, err := r.smallGroup(db, r.Scale.BaseRate, grpCols)
	if err != nil {
		return nil, err
	}
	cs := congress.New(congress.Config{
		Rate:    r.Scale.BaseRate * (1 + AllocationRatio*2.5), // mid-g matched space
		Columns: grpCols,
		Seed:    r.Scale.Seed + 3,
	})
	bc, err := r.prepared(db, "congress-basic", cs)
	if err != nil {
		return nil, err
	}
	methods := []method{prepMethod("SmGroup", sg), prepMethod("BasicCongress", bc), r.uniformMethod(db, r.Scale.BaseRate)}

	rel := &Figure{
		ID: "8a", Title: fmt.Sprintf("SmGroup vs BasicCongress vs Uniform on %s (%d columns, r=%g)", db.Name, len(grpCols), r.Scale.BaseRate),
		XLabel: "grouping columns", YLabel: "RelErr",
		Notes: []string{
			"paper: small group significantly more accurate; basic congress ~ uniform",
			"paper: congress degenerated into ~166,000 tiny strata on the 120-column SALES subset",
		},
	}
	if n := cs.StrataCount(); n > 0 { // zero when the family came from the cache
		rel.Notes = append(rel.Notes, fmt.Sprintf("measured: basic congress stratified %d rows into %d strata", db.NumRows(), n))
	}
	series := newSeriesPair("SmGroup", "BasicCongress", "Uniform")
	for g := 1; g <= 4; g++ {
		queries, err := r.sweepWorkload(db, g, 800+g, workload.Config{Aggregate: engine.Count, Columns: grpCols})
		if err != nil {
			return nil, err
		}
		accs, err := r.evalQueries(db, queries, methods)
		if err != nil {
			return nil, err
		}
		series.add(fmt.Sprintf("%d", g), accs)
	}
	return series.into(rel, &Figure{ID: "8b", Title: rel.Title, XLabel: "grouping columns", YLabel: "PctGroups missed (%)"}), nil
}

// SumOutlier reproduces the §5.3.3 comparison on SUM queries over the skewed
// sale_amount measure: small group sampling enhanced with outlier indexing vs
// outlier indexing alone vs uniform sampling.
func (r *Runner) SumOutlier() (*Figure, error) {
	db, err := r.database("sales", salesZ, r.Scale.SalesRows)
	if err != nil {
		return nil, err
	}
	const measure = "sale_amount"

	sgo, err := r.prepared(db, "sg+outlier", core.NewSmallGroup(core.SmallGroupConfig{
		BaseRate:           r.Scale.BaseRate,
		SmallGroupFraction: AllocationRatio * r.Scale.BaseRate,
		Seed:               r.Scale.Seed + 4,
		Overall:            outlier.Config{Measure: measure, Seed: r.Scale.Seed + 5},
	}))
	if err != nil {
		return nil, err
	}
	methods := []method{
		prepMethod("SmGroup+Outlier", sgo),
		{name: "Outlier", answer: func(q *engine.Query, g int) (*core.Answer, error) {
			rate := r.Scale.BaseRate * (1 + AllocationRatio*float64(g))
			p, err := r.prepared(db, fmt.Sprintf("outlier/r=%g", rate), outlier.New(outlier.Config{
				Rate: rate, Measure: measure, Seed: r.Scale.Seed + 5,
			}))
			if err != nil {
				return nil, err
			}
			return p.Answer(q)
		}},
		r.uniformMethod(db, r.Scale.BaseRate),
	}
	accs, err := r.evalAveraged(db, []int{1, 2, 3, 4}, func(g int) ([]*engine.Query, error) {
		return r.sweepWorkload(db, g, 900+g, workload.Config{Aggregate: engine.Sum, Measures: []string{measure}})
	}, methods)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "sum", Title: fmt.Sprintf("SUM(%s) queries on %s (r=%g)", measure, db.Name, r.Scale.BaseRate),
		XLabel: "metric", YLabel: "value",
		Labels: []string{"RelErr", "PctGroups missed (%)"},
		Notes: []string{
			"paper: RelErr 0.79 (SmGroup+Outlier) vs 1.08 (Outlier); missed groups 37% vs 55%; uniform ~ outlier",
		},
	}
	for _, m := range methods {
		fig.Series = append(fig.Series, Series{Name: m.name, Y: []float64{accs[m.name].RelErr, accs[m.name].PctGroups}})
	}
	return fig, nil
}
