package obs

// Families returns the label names of every family r holds by family name,
// series or not: WritePrometheus leaves out a labelled family that has no
// series yet.
func Families(r *Registry) map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]string, len(r.families))
	for n, f := range r.families {
		out[n] = append([]string(nil), f.labelNames...)
	}
	return out
}
