// Benchmark for the parallel execution layer: the partitioned scan kernel
// at increasing worker counts. Query throughput under concurrent clients is
// BenchmarkConcurrentQuery in ./internal/server.
// See EXPERIMENTS.md ("Parallel execution") for how to interpret the numbers;
// speedups require real cores (compare `nproc` against the workers suffix).
package dynsample

import (
	"context"
	"fmt"
	"testing"

	"dynsample/internal/engine"
	"dynsample/internal/parallel"
	"dynsample/internal/scenario"
)

// BenchmarkParallelScan runs the partitioned scan kernel at increasing worker
// counts on a full scan of the 200k-row TPC-H base view (the README quick
// start config). workers=1 runs inline on the calling goroutine;
// workers=NumCPU measures the speedup the hardware allows.
func BenchmarkParallelScan(b *testing.B) {
	db, err := scenario.Builtin("tpch", 200000, 2.0, 42)
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
				if _, err := engine.ExecuteCtx(context.Background(), db, q, engine.ExecOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
