// Command bench is the repository's benchmark: four workloads over a real
// aqpd-shaped server (net/http on loopback, catalog and WAL on disk), each
// reporting the same end-to-end metrics, plus a traced run per workload that
// attributes the time to the layers a request crosses. See README.md.
//
//	bench/run.sh --workload dash_point --seed 1 --seconds 8 --trace 0
//	bench/run.sh                 # every workload, untraced then traced
//	bench/run.sh -agree 5        # self-check: two sets of 5 runs must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir receives traces, the spread report and per-run scratch directories.
// The benchmark runs from the repository root; tests point it elsewhere.
var outDir = "bench/out"

func main() {
	started := time.Now()
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: the whole suite, one child process per run)")
		seed    = flag.Int64("seed", 1, "run seed: orders the queries of a pass")
		seconds = flag.Float64("seconds", 0, "nominal length of the measured phase; picks its fixed pass count (default: run_seconds from BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run: also measures the layers, and reports every metric that is not gated instead of the gated ones")
		agree   = flag.Int("agree", 0, "self-check: run the suite as two sets of N runs and compare them against the committed bounds")
	)
	flag.Parse()
	if err := run(started, *name, *seed, *seconds, *trace == 1, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(started time.Time, name string, seed int64, seconds float64, traced bool, agree int) error {
	spec, err := loadBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	if name == "" {
		if agree > 0 {
			return runAgree(spec, agree, seconds)
		}
		return runSuite(spec, seed, seconds)
	}
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	m, err := loadMachine()
	if err != nil {
		return err
	}
	m.apply()
	scratch, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("scratch-%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	fmt.Print(m.header(scratch))
	fmt.Printf("# workload %s seed=%d seconds=%g trace=%v: %s\n", def.Name, seed, seconds, traced, def.Why)

	in, err := buildInputs(def, seed)
	if err != nil {
		return err
	}
	res, err := runWorkload(def, in, seconds, scratch, started, traced)
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

// printMetrics writes every metric by name with its value and unit.
func (r *result) printMetrics(w *os.File) {
	for _, n := range sortedNames(r.Metrics) {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// print writes the metrics as a table, the diagnostics on one "#diag" line,
// and — last — the one-line JSON object the driver reads.
func (r *result) print(w *os.File) error {
	r.printMetrics(w)
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	diag, err := json.Marshal(r.Diag)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "#diag %s\n", diag)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
