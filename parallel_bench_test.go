// Benchmark for the parallel execution layer: the partitioned scan kernel
// at increasing worker counts. Query throughput under concurrent clients is
// BenchmarkConcurrentQuery in ./internal/server.
// See EXPERIMENTS.md ("Parallel execution") for how to interpret the numbers;
// speedups require real cores (compare `nproc` against the workers suffix).
package dynsample

import (
	"fmt"
	"testing"

	"dynsample/internal/datagen"
	"dynsample/internal/engine"
	"dynsample/internal/parallel"
)

// BenchmarkParallelScan runs the partitioned scan kernel at increasing worker
// counts on a full scan of the 200k-row TPC-H base view (the README quick
// start config). workers=1 runs inline on the calling goroutine;
// workers=NumCPU measures the speedup the hardware allows.
func BenchmarkParallelScan(b *testing.B) {
	db, err := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 1, Zipf: 2.0, RowsPerSF: 200000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	q := &engine.Query{
		GroupBy: []string{"p_brand"},
		Aggs:    []engine.Aggregate{{Kind: engine.Count}, {Kind: engine.Sum, Col: "l_extendedprice"}},
	}
	counts := []int{1, 2}
	if n := parallel.DefaultWorkers(); n > 2 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Execute(db, q, engine.ExecOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
