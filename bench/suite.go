package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// childRun runs one workload once in a fresh child process of this binary and
// parses what it printed.
func childRun(workload string, seed int64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "#diag ") {
		return nil, fmt.Errorf("%s seed %d: unexpected output", workload, seed)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "#diag ")), &res.Diag); err != nil {
		return nil, fmt.Errorf("%s seed %d: diag line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// printHeader describes the machine class and where scratch data will go.
func printHeader(m machine) {
	scratch, err := filepath.Abs(outDir)
	if err != nil {
		scratch = outDir
	}
	fmt.Print(m.header(scratch))
}

// runSuite runs every workload untraced and then traced, one child process
// per run, and prints every metric by name with its unit.
func runSuite(spec *benchmarkSpec, seed int64, seconds float64) error {
	m, err := loadMachine()
	if err != nil {
		return err
	}
	printHeader(m)
	e2e := map[string]*result{}
	for _, traced := range []bool{false, true} {
		for _, w := range spec.Workloads {
			res, err := childRun(w.Name, seed, seconds, traced)
			if err != nil {
				return err
			}
			if !traced {
				e2e[w.Name] = res
			}
			fmt.Printf("\n## %s trace=%v (%d ops attempted, %d failed) — %s\n", w.Name, traced, res.Attempted, res.Failed, w.Why)
			res.printMetrics(os.Stdout)
			for _, n := range sortedNames(res.Diag) {
				fmt.Printf("  (%s %.6g)\n", n, res.Diag[n])
			}
		}
	}
	if mixed, dash := e2e["ingest_mixed"], e2e["dash_point"]; mixed != nil && dash != nil {
		a, b := mixed.Diag["op_p50_ms"], dash.Diag["op_p50_ms"]
		fmt.Printf("\ningest_mixed / dash_point op_p50_ms = %.4g / %.4g = %.3f (base: dash_point)\n", a, b, a/b)
	}
	return nil
}

// spreadRow is one metric × workload line of the self-check.
type spreadRow struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	// Bound is the metric's bound in BENCHMARK.json; 0 for a timing metric
	// that is reported but not gated.
	Bound float64 `json:"bound"`
	// MedianA/B and the quartiles summarise the two sets of runs.
	MedianA float64 `json:"median_a"`
	Q1A     float64 `json:"q1_a"`
	Q3A     float64 `json:"q3_a"`
	MedianB float64 `json:"median_b"`
	Q1B     float64 `json:"q1_b"`
	Q3B     float64 `json:"q3_b"`
	// Spread is the wider of the two sets' interquartile ranges as a share
	// of the set's median; Gap is how much worse set B's median is than
	// set A's, as a share of set A's (negative when B is better).
	Spread float64  `json:"spread"`
	Gap    float64  `json:"gap"`
	Fails  []string `json:"fails,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// demotionBound is the most a timing metric may need to stay gated: one whose
// spread or gap exceeds it is reported, not gated.
const demotionBound = 0.10

// reported are the end-to-end timing metrics every run measures but
// BENCHMARK.json does not gate; the self-check shows why.
var reported = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "exact_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "restart_s", Unit: "s", Better: "lower"},
}

// cliffNeighbours names, per latency percentile, the neighbouring percentiles
// each run also reports. A percentile whose neighbour is further away than the
// bound sits on a cliff between op classes and jumps between runs.
var cliffNeighbours = map[string][]string{
	"op_p50_ms": {"op_p45_ms", "op_p55_ms"},
	"op_p95_ms": {"op_p93_ms", "op_p97_ms"},
}

// runAgree is the self-check: two sets of n untraced runs of every workload,
// each run with its own seed, compared the way the acceptance check compares
// them. It fails when a gated metric's spread (setup_s excepted, as there) or
// the gap between its set medians exceeds the bound committed in
// BENCHMARK.json, or when a gated latency percentile has a p45/p55 or p93/p97
// neighbour further away than its bound. The timing metrics that are reported
// but not gated are listed too, each with what keeps it from being gated at
// demotionBound.
func runAgree(spec *benchmarkSpec, n int, seconds float64) error {
	m, err := loadMachine()
	if err != nil {
		return err
	}
	printHeader(m)
	type key struct{ w, m string }
	var sets [2]map[key][]float64
	seed := int64(0)
	for set := range sets {
		sets[set] = map[key][]float64{}
		for _, w := range spec.Workloads {
			for i := 0; i < n; i++ {
				seed++
				res, err := childRun(w.Name, seed, seconds, false)
				if err != nil {
					return err
				}
				for name, mv := range res.Metrics {
					sets[set][key{w.Name, name}] = append(sets[set][key{w.Name, name}], mv.Value)
				}
				for name, v := range res.Diag {
					sets[set][key{w.Name, name}] = append(sets[set][key{w.Name, name}], v)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w.Name, seed)
			}
		}
	}

	var rows []spreadRow
	failed := 0
	fmt.Printf("\n%-13s %-20s %6s %12s %12s %8s %8s  %s\n", "workload", "metric", "bound", "median A", "median B", "spread", "gap", "")
	for _, w := range spec.Workloads {
		for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), reported...) {
			a, b := sets[0][key{w.Name, ms.Name}], sets[1][key{w.Name, ms.Name}]
			row := spreadRow{Workload: w.Name, Metric: ms.Name, Unit: ms.Unit, Bound: ms.Bound, MedianA: median(a), MedianB: median(b)}
			row.Q1A, row.Q3A = quartiles(a)
			row.Q1B, row.Q3B = quartiles(b)
			row.Spread = math.Max((row.Q3A-row.Q1A)/row.MedianA, (row.Q3B-row.Q1B)/row.MedianB)
			row.Gap = (row.MedianB - row.MedianA) / row.MedianA
			if ms.Better == "higher" {
				row.Gap = -row.Gap
			}
			// A gated metric is checked against its bound and fails; a
			// reported one is compared with demotionBound and annotated.
			bound, verdicts := ms.Bound, &row.Fails
			if bound == 0 {
				bound, verdicts = demotionBound, &row.Notes
			}
			if ms.Name != "setup_s" && row.Spread > bound {
				*verdicts = append(*verdicts, "spread")
			}
			if row.Gap > bound {
				*verdicts = append(*verdicts, "gap")
			}
			for _, near := range cliffNeighbours[ms.Name] {
				nv := median(append(append([]float64(nil), sets[0][key{w.Name, near}]...), sets[1][key{w.Name, near}]...))
				mid := median(append(append([]float64(nil), a...), b...))
				if math.Abs(nv-mid)/mid > bound {
					*verdicts = append(*verdicts, fmt.Sprintf("cliff:%s=%.4g", near, nv))
				}
			}
			failed += len(row.Fails)
			rows = append(rows, row)
			boundText := "  none"
			if ms.Bound > 0 {
				boundText = fmt.Sprintf("%5.0f%%", 100*ms.Bound)
			}
			fmt.Printf("%-13s %-20s %s %12.6g %12.6g %7.2f%% %+7.2f%%  %s\n",
				row.Workload, row.Metric, boundText, row.MedianA, row.MedianB, 100*row.Spread, 100*row.Gap, strings.Join(append(row.Fails, row.Notes...), " "))
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(map[string]any{"runs_per_set": n, "seconds": seconds, "rows": rows}); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "spread.json"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d violations (see the table; %s/spread.json)", failed, outDir)
	}
	fmt.Println("\nself-check passed: both sets agree within every bound")
	return nil
}
