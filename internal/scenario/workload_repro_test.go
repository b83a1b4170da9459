package scenario

import (
	"strings"
	"testing"

	"dynsample/internal/workload"
)

// reproSpec is a spec with a near-unique column: order_id has one distinct
// value per ~1.2 rows, far above the workload generator's MaxDistinct
// default, so it must never appear as a grouping or predicate column.
func reproSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec(strings.NewReader(`{
		"name": "REPRO",
		"seed": 99,
		"tables": [
			{
				"name": "events",
				"rows": 6000,
				"fact": true,
				"columns": [
					{"name": "kind", "type": "string", "dist": {"kind": "zipf", "card": 10, "z": 1.3}},
					{"name": "source", "type": "string", "dist": {"kind": "uniform", "card": 6}},
					{"name": "order_id", "type": "int", "dist": {"kind": "uniform", "card": 5000}},
					{"name": "bytes", "type": "float", "dist": {"kind": "lognormal", "mu": 5, "sigma": 1}}
				]
			}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Same spec + same workload seed must yield a byte-identical query sequence
// even when the database itself is regenerated from scratch — the property
// the scenario verdicts rely on for run-to-run comparability.
func TestWorkloadReproducibleAcrossRuns(t *testing.T) {
	render := func() []string {
		db, err := Generate(reproSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewGenerator(db, workload.Config{
			GroupingColumns: 2,
			Predicates:      1,
			Seed:            31,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, q := range gen.Queries(25) {
			out = append(out, q.String())
		}
		return out
	}

	runA, runB := render(), render()
	if len(runA) != len(runB) {
		t.Fatalf("run lengths differ: %d vs %d", len(runA), len(runB))
	}
	for i := range runA {
		if runA[i] != runB[i] {
			t.Fatalf("query %d differs across runs:\n  run A: %s\n  run B: %s", i, runA[i], runB[i])
		}
	}
}

// The near-unique-column exclusion must survive the scenario-spec path: no
// query generated over a high-cardinality column ever touches it.
func TestWorkloadExcludesNearUniqueScenarioColumn(t *testing.T) {
	db, err := Generate(reproSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(db, workload.Config{
		GroupingColumns: 1,
		Predicates:      1,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range gen.Queries(50) {
		if strings.Contains(q.String(), "order_id") {
			t.Fatalf("query %d references near-unique column order_id: %s", i, q)
		}
	}
}
