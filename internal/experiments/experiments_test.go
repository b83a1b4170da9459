package experiments

import (
	"strings"
	"testing"
)

// testScale keeps every experiment fast enough for unit tests while
// preserving the qualitative shapes.
func testScale() Scale {
	return Scale{
		TPCHSF1Rows:      80000,
		TPCHSF5Rows:      120000,
		SalesRows:        12000,
		QueriesPerConfig: 6,
		BaseRate:         0.02,
		Seed:             42,
	}
}

func TestFig3aShape(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	sm, un := fig.Series[0].Y, fig.Series[1].Y
	// Uniform is flat; at ratio 0 the curves coincide; small group dips.
	for i := 1; i < len(un); i++ {
		if un[i] != un[0] {
			t.Errorf("uniform not flat: %v", un)
		}
	}
	if sm[0] != un[0] {
		t.Errorf("ratio 0: SmGroup %g != Uniform %g", sm[0], un[0])
	}
	min := sm[0]
	for _, v := range sm {
		if v < min {
			min = v
		}
	}
	if min >= sm[0] {
		t.Errorf("small group never improves over ratio 0: %v", sm)
	}
}

func TestFig3bShape(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	sm, un := fig.Series[0].Y, fig.Series[1].Y
	last := len(sm) - 1
	// At high skew small group sampling must win clearly.
	if sm[last] >= un[last] {
		t.Errorf("at z=2.5 SmGroup %g not better than Uniform %g", sm[last], un[last])
	}
	// The advantage grows with skew.
	if (un[0] - sm[0]) >= (un[last] - sm[last]) {
		t.Errorf("advantage did not grow with skew: %v vs %v", un, sm)
	}
}

func TestFig4Shape(t *testing.T) {
	r := NewRunner(testScale())
	figs, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("figures = %d", len(figs))
	}
	rel, pct := figs[0], figs[1]
	series := func(f *Figure, name string) []float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Y
			}
		}
		t.Fatalf("series %q missing", name)
		return nil
	}
	smP, unP := series(pct, "SmGroup"), series(pct, "Uniform")
	// Small group must miss clearly fewer groups than uniform at g=1 (its
	// headline advantage) and stay no worse across the sweep.
	if smP[0] >= unP[0] {
		t.Errorf("g=1: SmGroup misses %g%% vs Uniform %g%%", smP[0], unP[0])
	}
	var smTot, unTot float64
	for i := range smP {
		smTot += smP[i]
		unTot += unP[i]
		if smP[i] < 0 || smP[i] > 100 || unP[i] < 0 || unP[i] > 100 {
			t.Errorf("g=%d: PctGroups out of range (%g, %g)", i+1, smP[i], unP[i])
		}
	}
	if smTot >= unTot {
		t.Errorf("SmGroup misses more groups overall: %g vs %g", smTot, unTot)
	}
	smR, unR := series(rel, "SmGroup"), series(rel, "Uniform")
	var smRT, unRT float64
	for i := range smR {
		smRT += smR[i]
		unRT += unR[i]
	}
	if smRT >= unRT*1.2 {
		t.Errorf("SmGroup mean RelErr %g much worse than Uniform %g", smRT/4, unRT/4)
	}
}

func TestFig6Crossover(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	var sm, un []float64
	for _, s := range fig.Series {
		if s.Name == "SmGroup" {
			sm = s.Y
		} else {
			un = s.Y
		}
	}
	// At z=2.0 (index 2) small group must be clearly better.
	if sm[2] >= un[2] {
		t.Errorf("z=2.0: SmGroup %g not better than Uniform %g", sm[2], un[2])
	}
}

func TestFig9Speedup(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fig.Series[0].Y {
		if v <= 1 {
			t.Errorf("g=%d: speedup %.2f not > 1", i+1, v)
		}
	}
}

func TestPreprocessTable(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.Preprocess()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Labels) != 5 {
		t.Fatalf("labels = %v", fig.Labels)
	}
	space := fig.Series[1].Y
	// Small group needs more space than uniform; the 0.25% variant less than
	// the 1% variant.
	if space[3] <= space[0] {
		t.Errorf("smallgroup space %g not above uniform %g", space[3], space[0])
	}
	if space[4] >= space[3] {
		t.Errorf("low-rate smallgroup space %g not below full %g", space[4], space[3])
	}
}

func TestRunRegistry(t *testing.T) {
	r := NewRunner(testScale())
	if _, err := r.Run("nope"); err == nil {
		t.Error("unknown id not rejected")
	}
	figs, err := r.Run("3a")
	if err != nil || len(figs) != 1 {
		t.Errorf("Run(3a) = %v, %v", figs, err)
	}
	for _, id := range IDs() {
		if id == "" {
			t.Error("empty id")
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		ID: "x", Title: "demo", XLabel: "k", YLabel: "v",
		Labels: []string{"1", "2"},
		Series: []Series{{Name: "a", Y: []float64{0.5, 1234567}}},
		Notes:  []string{"hello"},
	}
	out := f.String()
	for _, want := range []string{"Figure x: demo", "k", "a", "0.5000", "1.23e+06", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
