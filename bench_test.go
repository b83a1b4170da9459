// Benchmarks regenerating every table and figure of the paper (one benchmark
// per experiment, at a reduced scale so `go test -bench=.` completes in
// minutes) plus micro-benchmarks for the hot paths. Run the full-scale
// experiments with cmd/experiments instead.
package dynsample

import (
	"sync"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/experiments"
	"dynsample/internal/randx"
	"dynsample/internal/sample"
	"dynsample/internal/scenario"
	"dynsample/internal/workload"
)

// benchRunner is shared across figure benchmarks so database generation and
// pre-processing are paid once; each iteration re-runs the experiment's
// query evaluation.
var (
	benchRunnerOnce sync.Once
	benchRunner     *experiments.Runner
)

func runner() *experiments.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = experiments.NewRunner(experiments.Scale{
			TPCHSF1Rows:      80000,
			TPCHSF5Rows:      120000,
			SalesRows:        12000,
			QueriesPerConfig: 6,
			BaseRate:         0.02,
			Seed:             42,
		})
	})
	return benchRunner
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3aAllocationRatio regenerates Figure 3(a): analytical SqRelErr
// vs the sampling allocation ratio.
func BenchmarkFig3aAllocationRatio(b *testing.B) { benchFigure(b, "3a") }

// BenchmarkFig3bSkew regenerates Figure 3(b): analytical SqRelErr vs skew.
func BenchmarkFig3bSkew(b *testing.B) { benchFigure(b, "3b") }

// BenchmarkFig4GroupingColumns regenerates Figure 4: RelErr and PctGroups vs
// grouping columns, small group vs uniform on TPCH1G2.0z.
func BenchmarkFig4GroupingColumns(b *testing.B) { benchFigure(b, "4") }

// BenchmarkFig5Selectivity regenerates Figure 5: error vs per-group
// selectivity on SALES.
func BenchmarkFig5Selectivity(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig6Skew regenerates Figure 6: RelErr vs Zipf z on TPCH1Gyz.
func BenchmarkFig6Skew(b *testing.B) { benchFigure(b, "6") }

// BenchmarkFig7SamplingRate regenerates Figure 7: error vs base sampling
// rate on TPCH1G2.0z.
func BenchmarkFig7SamplingRate(b *testing.B) { benchFigure(b, "7") }

// BenchmarkFig8Congress regenerates Figure 8: small group vs basic congress
// vs uniform on the SALES column subset.
func BenchmarkFig8Congress(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig9Speedup regenerates Figure 9: runtime speedup vs grouping
// columns on the large database.
func BenchmarkFig9Speedup(b *testing.B) { benchFigure(b, "9") }

// BenchmarkSumOutlier regenerates the §5.3.3 SUM-query comparison (small
// group + outlier indexing vs outlier indexing vs uniform).
func BenchmarkSumOutlier(b *testing.B) { benchFigure(b, "sum") }

// BenchmarkPreprocess regenerates the §5.4.2 pre-processing time and space
// table.
func BenchmarkPreprocess(b *testing.B) { benchFigure(b, "prep") }

// BenchmarkGammaAblation regenerates the empirical allocation-ratio sweep.
func BenchmarkGammaAblation(b *testing.B) { benchFigure(b, "gamma") }

// BenchmarkTauAblation regenerates the distinct-value-cutoff sweep.
func BenchmarkTauAblation(b *testing.B) { benchFigure(b, "tau") }

// ---- Micro-benchmarks for the building blocks. ----

var (
	microOnce sync.Once
	microDB   *engine.Database
	microPrep core.Prepared
	microQ    *engine.Query
)

func microSetup(b *testing.B) {
	b.Helper()
	microOnce.Do(func() {
		db, err := scenario.Builtin("tpch", 100000, 2.0, 1)
		if err != nil {
			panic(err)
		}
		microDB = db
		p, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.01, Seed: 2}).Preprocess(db)
		if err != nil {
			panic(err)
		}
		microPrep = p
		gen, err := workload.NewGenerator(db, workload.Config{
			GroupingColumns: 2, Predicates: 1, Aggregate: engine.Count,
			MassSelectivity: true, Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		microQ = gen.Query()
	})
}

// BenchmarkExactScan measures exact execution of a 2-column group-by over
// the 100k-row base table.
func BenchmarkExactScan(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.ExecuteExact(microDB, microQ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallGroupAnswer measures the runtime phase: sample selection,
// rewritten execution, combination and confidence intervals.
func BenchmarkSmallGroupAnswer(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microPrep.Answer(microQ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallGroupPreprocess measures the two-scan pre-processing phase.
func BenchmarkSmallGroupPreprocess(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.01, Seed: int64(i)}).Preprocess(microDB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReservoir measures reservoir sampling throughput.
func BenchmarkReservoir(b *testing.B) {
	rng := randx.New(1)
	res := sample.NewReservoir(1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Offer(i)
	}
}

// BenchmarkZipfDraw measures the truncated-Zipf sampler.
func BenchmarkZipfDraw(b *testing.B) {
	z := randx.NewZipf(1.5, 2400)
	rng := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Draw(rng)
	}
}

// BenchmarkBaselines regenerates the beyond-paper all-strategies comparison.
func BenchmarkBaselines(b *testing.B) { benchFigure(b, "baselines") }

// BenchmarkLevels regenerates the multi-level hierarchy ablation.
func BenchmarkLevels(b *testing.B) { benchFigure(b, "levels") }
