package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dynsample/internal/engine"
	"dynsample/internal/randx"
)

func countQuery(cols ...string) *engine.Query {
	return &engine.Query{GroupBy: cols, Aggs: []engine.Aggregate{{Kind: engine.Count}}}
}

// plannerDB builds a distribution with a clean planner separation: four
// well-sampled common regions (40/30/20/9.5% of mass) plus ten genuinely
// rare ones sharing the remaining 0.5%. A moderately sized overall sample
// then predicts a mean error between 0.01 and 0.10 for the full sample
// plan, so nearby bounds select different plans.
func plannerDB(t testing.TB, n int) *engine.Database {
	t.Helper()
	region := engine.NewColumn("region", engine.String)
	amount := engine.NewColumn("amount", engine.Float)
	fact := engine.NewTable("fact", region, amount)
	rng := randx.New(99)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.40:
			region.AppendString("R0")
		case r < 0.70:
			region.AppendString("R1")
		case r < 0.90:
			region.AppendString("R2")
		case r < 0.995:
			region.AppendString("R3")
		default:
			region.AppendString("X" + string(rune('0'+rng.Intn(10))))
		}
		amount.AppendFloat(rng.Float64() * 100)
		fact.EndRow()
	}
	return engine.MustNewDatabase("plannerdb", fact)
}

func TestCostRateEWMA(t *testing.T) {
	var c costRate
	if _, ok := c.estimate(); ok {
		t.Fatal("estimate available before any observation")
	}
	c.observe(1000, time.Second)
	r, ok := c.estimate()
	if !ok || math.Abs(r-1000) > 1e-6 {
		t.Fatalf("first observation: rate %g ok=%v, want 1000", r, ok)
	}
	c.observe(3000, time.Second)
	r, _ = c.estimate()
	if math.Abs(r-1600) > 1e-6 { // 0.7*1000 + 0.3*3000
		t.Fatalf("EWMA after second observation: %g, want 1600", r)
	}
	c.observe(0, time.Second)
	c.observe(100, 0)
	if r2, _ := c.estimate(); r2 != r {
		t.Fatalf("degenerate observations moved the rate: %g -> %g", r, r2)
	}
}

func TestPredictErrorShrinksWithSampleAndTables(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, Seed: 1})
	ps := p.stats()
	q := countQuery("a")
	const z = 1.96

	small, _ := ps.predictError(q, nil, 100, z)
	large, _ := ps.predictError(q, nil, 2000, z)
	if !(large < small) {
		t.Fatalf("more sample rows did not shrink predicted error: %g -> %g", small, large)
	}
	withTable, _ := ps.predictError(q, map[string]bool{"a": true}, 100, z)
	if !(withTable < small) {
		t.Fatalf("using a's small group table did not shrink predicted error: %g -> %g", small, withTable)
	}
	if small > 1 || withTable < 0 {
		t.Fatalf("predictions out of range: %g, %g", small, withTable)
	}
}

func TestPredictErrorCaveats(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, Seed: 1})
	ps := p.stats()

	q := countQuery("a")
	q.Where = []engine.Predicate{engine.NewCmp("b", engine.Eq, engine.StringVal("B0"))}
	_, caveats := ps.predictError(q, nil, 500, 1.96)
	if len(caveats) == 0 {
		t.Fatal("predicate query produced no caveat")
	}
	// u is outside S (too many distinct values): prediction must say so.
	_, caveats = ps.predictError(countQuery("u"), nil, 500, 1.96)
	if len(caveats) == 0 {
		t.Fatal("grouping by a column outside S produced no caveat")
	}
}

func TestAnswerBoundsSelectsDifferentPlans(t *testing.T) {
	db := plannerDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.2, SmallGroupFraction: 0.05, ScanRowsPerSecond: 25e6, Seed: 1})
	q := countQuery("region")
	ctx := context.Background()

	loose, err := p.AnswerBounds(ctx, q, Bounds{ErrorBound: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := p.AnswerBounds(ctx, q, Bounds{ErrorBound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Plan == nil || tight.Plan == nil {
		t.Fatal("bounded answers missing plan decisions")
	}
	if loose.Plan.Chosen.Name == tight.Plan.Chosen.Name {
		t.Fatalf("bounds 0.10 and 0.01 selected the same plan %q", loose.Plan.Chosen.Name)
	}
	if loose.RowsRead >= tight.RowsRead {
		t.Fatalf("looser bound read more rows: %d vs %d", loose.RowsRead, tight.RowsRead)
	}
	for _, ans := range []*Answer{loose, tight} {
		d := ans.Plan
		if d.Chosen.PredictedError > d.Bounds.ErrorBound {
			t.Fatalf("chosen plan %q predicted %g above bound %g",
				d.Chosen.Name, d.Chosen.PredictedError, d.Bounds.ErrorBound)
		}
		if d.AchievedError < 0 || d.AchievedError > 1 {
			t.Fatalf("achieved error %g out of range", d.AchievedError)
		}
		if len(d.Candidates) < 2 {
			t.Fatalf("only %d candidates considered", len(d.Candidates))
		}
	}
}

func TestAnswerBoundsTimeOnlyPrefersAccuracy(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, ScanRowsPerSecond: 25e6, Seed: 1})
	ans, err := p.AnswerBounds(context.Background(), countQuery("a"), Bounds{TimeBound: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// A generous time budget admits the exact fallback, which any accuracy
	// preference must select.
	if !ans.Plan.Chosen.Exact {
		t.Fatalf("generous time bound chose %q, want the exact plan", ans.Plan.Chosen.Name)
	}
	if ans.Plan.AchievedError != 0 || ans.Plan.Chosen.PredictedError != 0 {
		t.Fatalf("exact plan reported nonzero error: predicted %g achieved %g",
			ans.Plan.Chosen.PredictedError, ans.Plan.AchievedError)
	}
	for _, g := range ans.Result.Groups() {
		if !g.Exact {
			t.Fatal("exact plan produced inexact group")
		}
	}
}

func TestAnswerBoundsUnsatisfiable(t *testing.T) {
	db := skewedDB(t, 20000)
	// Pin an implausibly slow scan rate so even the cheapest plan busts a
	// millisecond time bound, while the error bound demands the exact plan.
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, ScanRowsPerSecond: 1000, Seed: 1})
	_, err := p.AnswerBounds(context.Background(), countQuery("a"),
		Bounds{ErrorBound: 1e-9, TimeBound: time.Millisecond})
	var unsat *UnsatisfiableBoundsError
	if !errors.As(err, &unsat) {
		t.Fatalf("error %v, want UnsatisfiableBoundsError", err)
	}
	if unsat.BestLatency < time.Second {
		t.Fatalf("best latency %v implausibly small for a 20000-row exact scan at 1000 rows/s", unsat.BestLatency)
	}
	if unsat.Bounds.ErrorBound != 1e-9 || unsat.Bounds.TimeBound != time.Millisecond {
		t.Fatalf("error does not echo the requested bounds: %+v", unsat.Bounds)
	}
	if unsat.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestAnswerBoundsZeroMatchesAnswerCtx(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, Seed: 1})
	q := countQuery("a", "b")
	plain, err := p.AnswerCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := p.AnswerBounds(context.Background(), q, Bounds{})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Plan != nil {
		t.Fatal("zero bounds produced a plan decision")
	}
	if plain.RowsRead != bounded.RowsRead {
		t.Fatalf("rows read differ: %d vs %d", plain.RowsRead, bounded.RowsRead)
	}
	for _, k := range plain.Result.Keys() {
		g1, g2 := plain.Result.Group(k), bounded.Result.Group(k)
		if g2 == nil || g1.Vals[0] != g2.Vals[0] {
			t.Fatalf("group %v values differ between AnswerCtx and zero-bounds AnswerBounds", g1.Key)
		}
	}
}

func TestFractionalOverallStepScalesBack(t *testing.T) {
	db := skewedDB(t, 20000)
	p := prep(t, db, SmallGroupConfig{BaseRate: 0.05, ScanRowsPerSecond: 25e6, Seed: 1})
	q := countQuery("a")
	cands, _, _ := p.enumerate(q, 0.95, true)
	var frac *candidate
	for i := range cands {
		if f := cands[i].OverallFraction; f > 0 && f < 1 {
			frac = &cands[i]
			break
		}
	}
	if frac == nil {
		t.Fatal("no fractional candidate enumerated over a uniform overall sample")
	}
	plan := p.build(q, frac)
	last := plan.Steps[len(plan.Steps)-1]
	if last.MaxRows <= 0 || last.MaxRows >= p.overall.src.NumRows() {
		t.Fatalf("fractional overall step MaxRows %d not a strict prefix of %d", last.MaxRows, p.overall.src.NumRows())
	}
	// The trimmed prefix must be scaled up so estimates stay unbiased:
	// scale * maxRows == overallScale * overallRows.
	want := p.overallScale * float64(p.overall.src.NumRows())
	got := last.Scale * float64(last.MaxRows)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("fraction scale does not compensate: scale*rows %g, want %g", got, want)
	}
	// Executing the fractional plan still yields estimates near the full
	// plan's for the dominant group (sanity of the rescaling).
	res, _, err := ExecutePlanCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, g := range res.Groups() {
		total += g.Vals[0]
	}
	if total < 10000 || total > 40000 {
		t.Fatalf("fractional plan total count %g wildly off base 20000", total)
	}
}

// choiceDB is the fixed database behind the plan-choice characterisation:
// three grouping columns whose rare mass (y 4% > z 2% > x 1%) orders their
// small group tables differently from their index order (x, y, z), so the
// table prefixes, the MaxTablesPerQuery cap and the exclude-mask chain are
// all observable.
func choiceDB(t testing.TB) *engine.Database {
	t.Helper()
	x := engine.NewColumn("x", engine.String)
	y := engine.NewColumn("y", engine.String)
	z := engine.NewColumn("z", engine.String)
	m := engine.NewColumn("m", engine.Int)
	fact := engine.NewTable("fact", x, y, z, m)
	rng := randx.New(2003)
	skew := func(c *engine.Column, prefix string, rare float64) {
		switch r := rng.Float64(); {
		case r < 0.6:
			c.AppendString(prefix + "0")
		case r < 1-rare:
			c.AppendString(prefix + "1")
		default:
			c.AppendString(prefix + "r" + string(rune('a'+rng.Intn(8))))
		}
	}
	for i := 0; i < 30000; i++ {
		skew(x, "X", 0.01)
		skew(y, "Y", 0.04)
		skew(z, "Z", 0.02)
		m.AppendInt(int64(i%53) + 1)
		fact.EndRow()
	}
	return engine.MustNewDatabase("choice", fact)
}

// renderSteps spells out everything a rewrite plan fixes per step: source
// name, row cap, scale and exclude mask.
func renderSteps(plan *RewritePlan) string {
	var parts []string
	for _, st := range plan.Steps {
		s := st.Name
		if st.MaxRows > 0 {
			s += fmt.Sprintf("[:%d]", st.MaxRows)
		}
		parts = append(parts, fmt.Sprintf("%s*%g&%s", s, st.Scale, maskDecimal(st.Exclude)))
	}
	return strings.Join(parts, " ")
}

// TestPlanChoiceCharacterisation pins sample selection end to end over one
// seeded database: the candidate list, and for every selection regime the
// plan that runs. The expected values were recorded before selection became
// one pipeline; a refactor of it must leave them alone.
func TestPlanChoiceCharacterisation(t *testing.T) {
	p := prep(t, choiceDB(t), SmallGroupConfig{BaseRate: 0.05, Seed: 7, ScanRowsPerSecond: 25e6})
	q := countQuery("x", "y", "z")
	variant := func(rate float64, maxTables int) *smallGroupPrepared {
		c := *p
		c.cfg.ScanRowsPerSecond, c.cfg.MaxTablesPerQuery = rate, maxTables
		return &c
	}

	// Cheapest first; ties in Rows do not occur on this fixture.
	wantCands := []struct {
		name string
		rows int64
		err  float64
	}{
		{"sg_overall/0.1", 150, 0.9685424814885041},
		{"sg_overall/0.25", 375, 0.9584446496216765},
		{"sg_overall/0.5", 750, 0.9533553554196632},
		{"sg_y+sg_overall/0.1", 808, 0.6983701341408992},
		{"sg_y+sg_overall/0.25", 1033, 0.6882723022740717},
		{"sg_y+sg_z+sg_overall/0.1", 1367, 0.3761596338097634},
		{"sg_y+sg_overall/0.5", 1408, 0.6831830080720583},
		{"sg_overall", 1500, 0.9497566809779663},
		{"sg_y+sg_z+sg_overall/0.25", 1592, 0.36606180194293575},
		{"sg_x+sg_y+sg_z+sg_overall/0.1", 1626, 0.11587070056657192},
		{"sg_x+sg_y+sg_z+sg_overall/0.25", 1851, 0.1057728686997442},
		{"sg_y+sg_z+sg_overall/0.5", 1967, 0.3609725077409225},
		{"sg_y+sg_overall", 2158, 0.6795843336303615},
		{"sg_x+sg_y+sg_z+sg_overall/0.5", 2226, 0.10068357449773098},
		{"sg_y+sg_z+sg_overall", 2717, 0.3573738332992256},
		{"sg_x+sg_y+sg_z+sg_overall", 2976, 0.09708490005603405},
		{"exact", 30000, 0},
	}
	checkCands := func(label string, got []PlanCandidate, b Bounds) {
		t.Helper()
		if len(got) != len(wantCands) {
			t.Fatalf("%s: %d candidates, want %d", label, len(got), len(wantCands))
		}
		for i, w := range wantCands {
			c := got[i]
			if c.Name != w.name || c.Rows != w.rows || math.Abs(c.PredictedError-w.err) > 1e-12 {
				t.Errorf("%s: candidate %d = {%s %d %v}, want {%s %d %v}", label, i, c.Name, c.Rows, c.PredictedError, w.name, w.rows, w.err)
			}
			// The fixture pins 25e6 rows/s, so latency is rows × 40ns.
			if c.PredictedLatency != time.Duration(c.Rows*40) {
				t.Errorf("%s: candidate %s latency %v, want %v", label, c.Name, c.PredictedLatency, time.Duration(c.Rows*40))
			}
			feasible := (b.ErrorBound == 0 || w.err <= b.ErrorBound) && (b.TimeBound == 0 || time.Duration(w.rows*40) <= b.TimeBound)
			if c.Feasible != feasible {
				t.Errorf("%s: candidate %s feasible=%v, want %v", label, c.Name, c.Feasible, feasible)
			}
		}
	}
	preview, caveats, err := p.PreviewPlans(q, Bounds{})
	if err != nil {
		t.Fatal(err)
	}
	checkCands("preview", preview, Bounds{})
	if len(caveats) != 0 {
		t.Errorf("predicate-free query over columns of S carries caveats %q", caveats)
	}
	filtered := *q
	filtered.Where = []engine.Predicate{engine.NewCmp("m", engine.Gt, engine.IntVal(10))}
	if _, caveats, _ = p.PreviewPlans(&filtered, Bounds{}); len(caveats) != 1 || !strings.Contains(caveats[0], "selectivity 1") {
		t.Errorf("filtered query caveats = %q, want the one selectivity caveat", caveats)
	}

	const full = "sg_x*1&0 sg_y*1&1 sg_z*1&3 sg_overall*20&7"
	cases := []struct {
		name     string
		p        *smallGroupPrepared
		deadline bool // run under a 30s request deadline
		b        Bounds
		chosen   string // PlanDecision.Chosen.Name; "" when no decision is reported
		steps    string
		degraded bool
	}{
		{"no bounds", p, false, Bounds{}, "", full, false},
		{"deadline fits everything", variant(1e12, 0), true, Bounds{}, "", full, false},
		// 80 rows/s × 30s admits sg_y+sg_overall (2158 rows) but not a second table (2717).
		{"deadline fits a prefix", variant(80, 0), true, Bounds{}, "", "sg_y*1&0 sg_overall*20&2", true},
		{"deadline fits nothing", variant(1, 0), true, Bounds{}, "", "sg_overall*20&0", true},
		{"loose error_bound", p, false, Bounds{ErrorBound: 0.5}, "sg_y+sg_z+sg_overall/0.1", "sg_y*1&0 sg_z*1&2 sg_overall[:150]*200&6", false},
		{"tight error_bound", p, false, Bounds{ErrorBound: 0.1}, "sg_x+sg_y+sg_z+sg_overall", full, false},
		{"error_bound under a deadline", p, true, Bounds{ErrorBound: 0.5}, "sg_y+sg_z+sg_overall/0.1", "sg_y*1&0 sg_z*1&2 sg_overall[:150]*200&6", false},
		{"time_bound", p, false, Bounds{TimeBound: 100 * time.Microsecond}, "sg_x+sg_y+sg_z+sg_overall/0.5", "sg_x*1&0 sg_y*1&1 sg_z*1&3 sg_overall[:750]*40&7", false},
		{"both", p, false, Bounds{ErrorBound: 0.3, TimeBound: 200 * time.Microsecond}, "sg_x+sg_y+sg_z+sg_overall/0.1", "sg_x*1&0 sg_y*1&1 sg_z*1&3 sg_overall[:150]*200&7", false},
		{"table cap", variant(25e6, 2), false, Bounds{}, "", "sg_y*1&0 sg_z*1&2 sg_overall*20&6", false},
	}
	for _, tc := range cases {
		ctx := context.Background()
		if tc.deadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
		}
		ans, err := tc.p.AnswerBounds(ctx, q, tc.b)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := renderSteps(ans.Rewrite); got != tc.steps || ans.Degraded != tc.degraded {
			t.Errorf("%s: ran %q degraded=%v, want %q degraded=%v", tc.name, got, ans.Degraded, tc.steps, tc.degraded)
		}
		if tc.chosen == "" {
			if ans.Plan != nil {
				t.Errorf("%s: unbounded answer reports a plan decision", tc.name)
			}
			continue
		}
		if ans.Plan == nil || ans.Plan.Chosen.Name != tc.chosen || !ans.Plan.Chosen.Feasible {
			t.Errorf("%s: decision %+v, want feasible %q", tc.name, ans.Plan, tc.chosen)
			continue
		}
		checkCands(tc.name, ans.Plan.Candidates, tc.b)
	}

	// Plan(q) is the full candidate: the same sources, scales and masks the
	// planner's own full plan carries, for the default and the capped family.
	for _, pp := range []*smallGroupPrepared{variant(1e12, 0), variant(1e12, 2)} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ans, err := pp.AnswerCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		plan := pp.Plan(q)
		if len(plan.Steps) != len(ans.Rewrite.Steps) {
			t.Fatalf("Plan(q) has %d steps, the full candidate %d", len(plan.Steps), len(ans.Rewrite.Steps))
		}
		for i, st := range plan.Steps {
			w := ans.Rewrite.Steps[i]
			if st.Source != w.Source || st.Name != w.Name || st.Scale != w.Scale || st.MaxRows != w.MaxRows ||
				st.MarkExact != w.MarkExact || !st.Exclude.Equal(w.Exclude) {
				t.Errorf("Plan(q) step %d = %+v, full candidate's = %+v", i, st, w)
			}
		}
	}

	_, err = p.AnswerBounds(context.Background(), q, Bounds{ErrorBound: 0.01, TimeBound: 100 * time.Microsecond})
	var unsat *UnsatisfiableBoundsError
	if !errors.As(err, &unsat) {
		t.Fatalf("unsatisfiable bounds: err = %v", err)
	}
	// Best error within the time bound is sg_x+sg_y+sg_z+sg_overall/0.5's;
	// only the exact plan meets the error bound.
	if math.Abs(unsat.BestError-0.10068357449773098) > 1e-12 || unsat.BestLatency != 1200*time.Microsecond {
		t.Errorf("unsatisfiable: best error %v latency %v, want 0.10068357449773098 and 1.2ms", unsat.BestError, unsat.BestLatency)
	}
}
