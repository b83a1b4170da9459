package experiments

import (
	"math"
	"strings"
	"testing"
)

// These tests exercise every remaining experiment driver at the reduced test
// scale, asserting structural sanity (shapes, ranges, series presence); the
// paper-shape assertions live in experiments_test.go for the experiments
// whose shape is stable at small scale.

func checkFinite(t *testing.T, f *Figure) {
	t.Helper()
	if len(f.Series) == 0 || len(f.Labels) == 0 {
		t.Fatalf("figure %s empty: %d series, %d labels", f.ID, len(f.Series), len(f.Labels))
	}
	for _, s := range f.Series {
		if len(s.Y) != len(f.Labels) {
			t.Errorf("figure %s series %s has %d points for %d labels", f.ID, s.Name, len(s.Y), len(f.Labels))
		}
		for i, v := range s.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("figure %s series %s point %d = %g", f.ID, s.Name, i, v)
			}
		}
	}
}

func TestFig5Structure(t *testing.T) {
	r := NewRunner(testScale())
	figs, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("figures = %d", len(figs))
	}
	for _, f := range figs {
		checkFinite(t, f)
		if len(f.Series) != 2 {
			t.Errorf("figure %s series = %d, want 2", f.ID, len(f.Series))
		}
	}
	// PctGroups values are percentages.
	for _, s := range figs[1].Series {
		for _, v := range s.Y {
			if v > 100 {
				t.Errorf("PctGroups %g > 100", v)
			}
		}
	}
}

func TestFig7Structure(t *testing.T) {
	r := NewRunner(testScale())
	figs, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("figures = %d", len(figs))
	}
	for _, f := range figs {
		checkFinite(t, f)
		if len(f.Labels) != 5 {
			t.Errorf("figure %s rates = %d, want 5", f.ID, len(f.Labels))
		}
	}
	// Error at the lowest rate must exceed error at the highest rate for
	// both methods (smooth degradation as the rate falls).
	for _, s := range figs[0].Series {
		if s.Y[0] <= s.Y[len(s.Y)-1] {
			t.Errorf("series %s: RelErr did not fall with rate: %v", s.Name, s.Y)
		}
	}
}

func TestFig8Structure(t *testing.T) {
	r := NewRunner(testScale())
	figs, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("figures = %d", len(figs))
	}
	for _, f := range figs {
		checkFinite(t, f)
		if len(f.Series) != 3 {
			t.Errorf("figure %s series = %d, want 3 (SmGroup, BasicCongress, Uniform)", f.ID, len(f.Series))
		}
	}
}

func TestSumOutlierStructure(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.SumOutlier()
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, fig)
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	if len(fig.Labels) != 2 {
		t.Fatalf("labels = %v", fig.Labels)
	}
}

func TestGammaAblationStructure(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.GammaAblation()
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, fig)
	if fig.Labels[0] != "0 (uniform)" {
		t.Errorf("first label = %q", fig.Labels[0])
	}
}

func TestTauAblation(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.TauAblation()
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, fig)
	// |S| must be non-decreasing in tau: a larger cutoff keeps more columns.
	s := fig.Series[1].Y
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Errorf("|S| decreased with tau: %v", s)
		}
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	r := NewRunner(testScale())
	var figs []*Figure
	for _, id := range IDs() {
		f, err := r.Run(id)
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		figs = append(figs, f...)
	}
	if len(figs) < 12 {
		t.Errorf("the experiments produced %d figures, want >= 12", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Errorf("duplicate figure id %s", f.ID)
		}
		seen[f.ID] = true
	}
}

func TestSalesRestrictedColumns(t *testing.T) {
	r := NewRunner(testScale())
	db, err := r.database("sales", salesZ, r.Scale.SalesRows)
	if err != nil {
		t.Fatal(err)
	}
	cols := salesRestrictedColumns(db)
	if len(cols) >= len(db.Columns()) {
		t.Errorf("restriction kept all %d columns", len(cols))
	}
	kept := map[string]bool{}
	for _, c := range cols {
		kept[c] = true
	}
	if !kept["product_line"] || !kept["sale_amount"] {
		t.Error("fact/kept-dimension columns missing from restriction")
	}
	if kept["cal_quarter"] || kept["channel_type"] {
		t.Error("excluded dimensions leaked into restriction")
	}
}

func TestSelectivityLabel(t *testing.T) {
	if got := selectivityLabel(0); got != "0.00%-0.02%" {
		t.Errorf("label 0 = %q", got)
	}
	if got := selectivityLabel(len(selectivityBins) - 1); got != "0.64%-1.28%" {
		t.Errorf("last label = %q", got)
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{
		ID: "x/1", XLabel: "k",
		Labels: []string{"1", "2"},
		Series: []Series{{Name: "a", Y: []float64{0.5, 2}}, {Name: "b", Y: []float64{1}}},
	}
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "k,a,b\n1,0.5,1\n2,2,\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	if f.FileName() != "figure_x_1.csv" {
		t.Errorf("FileName = %q", f.FileName())
	}
}

func TestBaselinesStructure(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, fig)
	if len(fig.Labels) != 5 {
		t.Fatalf("labels = %v", fig.Labels)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
}

func TestLevelsStructure(t *testing.T) {
	r := NewRunner(testScale())
	fig, err := r.Levels()
	if err != nil {
		t.Fatal(err)
	}
	checkFinite(t, fig)
	if len(fig.Labels) != 2 || len(fig.Series) != 3 {
		t.Fatalf("shape: %d labels, %d series", len(fig.Labels), len(fig.Series))
	}
	rows := fig.Series[2].Y
	// The three-level variant stores strictly more rows (the medium band).
	if rows[1] <= rows[0] {
		t.Errorf("three-level rows %g not above two-level %g", rows[1], rows[0])
	}
}
