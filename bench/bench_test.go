package main

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"
)

const (
	testScale   = 50   // tests run every workload at 1/50 of its data and ingest volume
	testSeed    = 3    // the run seed of every test run
	testSeconds = 0.01 // short enough for the minimum of two passes
)

// scaled shrinks the data and ingest volumes by div for a smoke run: one
// repeat of the distinct queries per pass, a few batches per ingest pass.
func (d workloadDef) scaled(div int) workloadDef {
	d.Rows /= div
	d.TailBatches /= div
	if d.Kind == ingestOnly {
		d.PassOps = 4
	} else {
		d.PassOps = d.Queries.N
	}
	d.RestartReps = 2
	return d
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := loadBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sharedInputs builds every workload's inputs once per test binary: the proxy
// database and the two distinct query lists are seed-independent and cost
// over a second to build.
var sharedInputs = sync.OnceValues(func() (map[string]*inputs, error) {
	proxy, err := generateDB(proxyRows)
	if err != nil {
		return nil, err
	}
	lists := map[string][]queryOp{}
	out := map[string]*inputs{}
	for _, full := range workloads {
		def := full.scaled(testScale)
		key := fmt.Sprint(def.Queries)
		if lists[key] == nil {
			if lists[key], err = buildQueries(proxy, def.Queries); err != nil {
				return nil, err
			}
		}
		if out[def.Name], err = newInputs(def, lists[key], proxy, testSeed); err != nil {
			return nil, err
		}
	}
	return out, nil
})

// The same seed must give byte-identical inputs, a different seed different
// ones: the seed drives the query order of a pass (the ingest batches are fixed).
func TestInputsFollowTheSeed(t *testing.T) {
	shared, err := sharedInputs()
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := generateDB(proxyRows)
	if err != nil {
		t.Fatal(err)
	}
	// groupby_scan's list goes through every step of the construction:
	// generators, de-duplication and the answer-size selection.
	def := workloads[1].scaled(testScale)
	a := shared[def.Name]
	ops, err := buildQueries(proxy, def.Queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs(def, ops, proxy, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInputs(def, ops, proxy, testSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ops) != def.Queries.N || len(b.ops) != def.Queries.N {
		t.Fatalf("%d and %d distinct queries, want %d", len(a.ops), len(b.ops), def.Queries.N)
	}
	for i := range a.ops {
		if !bytes.Equal(a.ops[i].Body, b.ops[i].Body) || !bytes.Equal(a.ops[i].Exact, b.ops[i].Exact) {
			t.Fatalf("query %d differs between two builds", i)
		}
	}
	if !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("op order differs between two builds with one seed")
	}
	if reflect.DeepEqual(a.order, c.order) {
		t.Fatal("op order is the same for two seeds")
	}
	for i := 0; i < payloadPool+3; i++ {
		if !bytes.Equal(a.batches.body("m", i), b.batches.body("m", i)) || !bytes.Equal(a.batches.body("m", i), c.batches.body("m", i)) {
			t.Fatalf("batch %d differs between two builds", i)
		}
	}
}

// A run's work is a fixed operation count: --seconds picks it through the
// frozen reference rate. Every workload measures at least 1 000 ops,
// ingest_only stays within twice its base rows, and ingest_mixed's writer has
// batches left when the queries end even if they take half as long again as
// on the reference box.
func TestWorkIsFixedByOperationCount(t *testing.T) {
	seconds := float64(loadSpec(t).RunSeconds)
	for _, def := range workloads {
		ops := def.passes(seconds) * def.PassOps
		if ops < 1000 {
			t.Errorf("%s: %d passes of %d ops measure %d ops, want >= 1000", def.Name, def.passes(seconds), def.PassOps, ops)
		}
		if rows := (def.PassOps + ops + def.TailBatches) * batchRows; def.Kind == ingestOnly && rows > def.Rows {
			t.Errorf("%s: ingests %d rows, more than its %d base rows", def.Name, rows, def.Rows)
		}
		if def.Kind == ingestMixed {
			posted := def.WriterPerSec * float64(ops) / def.RefOpsPerSec
			if got := float64(def.writerBatches(seconds)); got < 1.5*posted {
				t.Errorf("%s: writer limit %v batches for %v posted at the reference rate", def.Name, got, posted)
			}
		}
	}
}

// BENCHMARK.json and the code must describe the same benchmark.
func TestBenchmarkSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	// A gated metric holds 10 % or is not gated. The one exception is the
	// contract's setup_s, whose spread the acceptance check does not look at.
	if len(spec.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json gates %d metrics, the code %d", len(spec.EndToEnd), len(gated))
	}
	for _, m := range spec.EndToEnd {
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in seconds, lower is better: %+v", m)
			}
		}
		if !gated[m.Name] || m.Bound <= 0 || m.Bound > limit {
			t.Errorf("end-to-end metric %q: gated in code %v, bound %g outside (0, %g]", m.Name, gated[m.Name], m.Bound, limit)
		}
	}
}

// A smoke run of every workload emits exactly the metrics BENCHMARK.json
// names, with their units, and no failed op — so drift in the internal APIs
// the benchmark drives breaks the build, not the next benchmark. On the
// workloads with one sequential writer the accuracy and space metrics must
// also repeat exactly between two independent runs.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	outDir = t.TempDir()
	check := func(def workloadDef, res *result, want []metricSpec) {
		t.Helper()
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, correct %v", def.Name, res.Attempted, res.Failed, res.Correct)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", def.Name, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %q not emitted", def.Name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", def.Name, m.Name, got.Unit, m.Unit)
			}
		}
	}
	inputs, err := sharedInputs()
	if err != nil {
		t.Fatal(err)
	}
	scanned := map[string]float64{}
	for _, full := range workloads {
		def, in := full.scaled(testScale), inputs[full.Name]
		untraced, err := runWorkload(def, in, testSeconds, t.TempDir(), time.Now(), false)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		check(def, untraced, spec.EndToEnd)
		traced, err := runWorkload(def, in, testSeconds, t.TempDir(), time.Now(), true)
		if err != nil {
			t.Fatalf("%s traced: %v", def.Name, err)
		}
		check(def, traced, spec.PerLayer)
		scanned[def.Name] = traced.Metrics["core.rows_scanned_per_op"].Value
		if def.Kind == ingestOnly {
			continue // two clients interleave batches; the reservoir order varies
		}
		// A traced run carries the gated metrics as diagnostics.
		for _, n := range []string{"rel_err_mean", "groups_missed_share", "ci_cover_share", "sample_space_share"} {
			if a, b := untraced.Metrics[n].Value, traced.Diag[n]; a != b || a == 0 {
				t.Errorf("%s: %s is %v then %v with one seed", def.Name, n, a, b)
			}
		}
	}
	// dash_point and ingest_mixed share data, configuration and query list, and
	// a traced run replays the queries before anything is ingested: two
	// independent runs must scan exactly the same rows.
	if a, b := scanned["dash_point"], scanned["ingest_mixed"]; a != b || a == 0 {
		t.Errorf("core.rows_scanned_per_op is %v on dash_point and %v on ingest_mixed", a, b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31.0 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
