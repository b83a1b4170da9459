package experiments

import "fmt"

// Run executes the experiment with the given paper id. Valid ids: 3a, 3b, 4,
// 5, 6, 7, 8, 9, sum, prep, gamma, tau, baselines, levels, bounds.
func (r *Runner) Run(id string) ([]*Figure, error) {
	switch id {
	case "3a":
		f, err := r.Fig3a()
		return wrap(f, err)
	case "3b":
		f, err := r.Fig3b()
		return wrap(f, err)
	case "4":
		return r.Fig4()
	case "5":
		return r.Fig5()
	case "6":
		f, err := r.Fig6()
		return wrap(f, err)
	case "7":
		return r.Fig7()
	case "8":
		return r.Fig8()
	case "9":
		f, err := r.Fig9()
		return wrap(f, err)
	case "sum":
		f, err := r.SumOutlier()
		return wrap(f, err)
	case "prep":
		f, err := r.Preprocess()
		return wrap(f, err)
	case "gamma":
		f, err := r.GammaAblation()
		return wrap(f, err)
	case "tau":
		f, err := r.TauAblation()
		return wrap(f, err)
	case "baselines":
		f, err := r.Baselines()
		return wrap(f, err)
	case "levels":
		f, err := r.Levels()
		return wrap(f, err)
	case "bounds":
		return r.Bounds()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

func wrap(f *Figure, err error) ([]*Figure, error) {
	if err != nil {
		return nil, err
	}
	return []*Figure{f}, nil
}

// IDs lists every experiment id in paper order, followed by the ablations
// and the beyond-paper baseline comparison.
func IDs() []string {
	return []string{"3a", "3b", "4", "5", "6", "7", "8", "9", "sum", "prep", "gamma", "tau", "baselines", "levels", "bounds"}
}
