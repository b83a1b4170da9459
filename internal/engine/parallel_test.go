package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomScanTable builds a weighted table whose shape is derived from the
// seed: two group columns (string and int), a float measure and per-row
// weights in [1, 11).
func randomScanTable(seed int64, n int) *Table {
	rng := rand.New(rand.NewSource(seed))
	g := NewColumn("g", String)
	h := NewColumn("h", Int)
	m := NewColumn("m", Float)
	t := NewTable("t", g, h, m)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		g.AppendString("g" + string(rune('a'+rng.Intn(7))))
		h.AppendInt(int64(rng.Intn(5)))
		m.AppendFloat(rng.NormFloat64() * 100)
		t.EndRow()
		weights[i] = 1 + rng.Float64()*10
	}
	t.addWeights(weights)
	return t
}

func scanQuery() *Query {
	return &Query{
		GroupBy: []string{"g", "h"},
		Aggs:    []Aggregate{{Kind: Count}, {Kind: Sum, Col: "m"}},
		Where:   []Predicate{NewCmp("h", Le, IntVal(3))},
	}
}

// resultsBitIdentical requires exact float equality on every accumulator of
// every group, plus matching scan counters and exactness flags.
func resultsBitIdentical(t *testing.T, want, got *Result) {
	t.Helper()
	if want.NumGroups() != got.NumGroups() {
		t.Fatalf("group count: want %d, got %d", want.NumGroups(), got.NumGroups())
	}
	if want.RowsScanned != got.RowsScanned || want.RowsMatched != got.RowsMatched {
		t.Fatalf("counters: want (%d,%d), got (%d,%d)",
			want.RowsScanned, want.RowsMatched, got.RowsScanned, got.RowsMatched)
	}
	for _, k := range want.Keys() {
		wg, gg := want.Group(k), got.Group(k)
		if gg == nil {
			t.Fatalf("group %q missing", k)
		}
		if wg.Exact != gg.Exact || wg.RawRows != gg.RawRows {
			t.Fatalf("group %q: Exact/RawRows mismatch", k)
		}
		for i := range wg.Vals {
			if wg.Vals[i] != gg.Vals[i] || wg.RawSum[i] != gg.RawSum[i] ||
				wg.RawSumSq[i] != gg.RawSumSq[i] || wg.VarAcc[i] != gg.VarAcc[i] {
				t.Fatalf("group %q agg %d: accumulators not bit-identical: %v vs %v",
					k, i, wg, gg)
			}
		}
	}
}

// The scan kernel must return bit-identical results for every worker count,
// 0 included: shard boundaries and merge order depend only on the source.
func TestExecuteWorkerCountDeterminism(t *testing.T) {
	src := randomScanTable(7, 3*ScanShardRows+137) // 4 shards, last one ragged
	q := scanQuery()
	opt := ExecOptions{Scale: 17.5}

	opt.Workers = 1
	want, err := ExecuteCtx(context.Background(), src, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 64} {
		opt.Workers = workers
		got, err := ExecuteCtx(context.Background(), src, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, want, got)
	}
}

// Property: merging per-shard partial results (including empty shards)
// reproduces the single-threaded result — exactly for the group structure
// and row counters, and within float tolerance for the weighted COUNT/SUM
// accumulators; AVG recombined from the merged (sum, count) pair agrees too.
func TestMergeShardPartialsProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		n := 2000 + rng.Intn(4000)
		src := randomScanTable(seed, n)
		q := scanQuery()
		opt := ExecOptions{Scale: 1 + rng.Float64()*20}

		serial, err := ExecuteCtx(context.Background(), src, q, opt)
		if err != nil {
			t.Fatal(err)
		}

		// Random ragged shard boundaries, with deliberate empty shards.
		cuts := []int{0, 0, rng.Intn(n), rng.Intn(n), n, n}
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		bound, err := bindQuery(src, q)
		if err != nil {
			t.Fatal(err)
		}
		merged := NewResult(q.GroupBy, q.Aggs)
		for i := 1; i < len(cuts); i++ {
			part := executeRange(src, q, bound, opt, opt.Scale, cuts[i-1], cuts[i])
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}

		if merged.NumGroups() != serial.NumGroups() {
			t.Fatalf("seed %d: %d groups merged, %d serial", seed, merged.NumGroups(), serial.NumGroups())
		}
		if merged.RowsScanned != serial.RowsScanned || merged.RowsMatched != serial.RowsMatched {
			t.Fatalf("seed %d: counters diverge", seed)
		}
		for _, k := range serial.Keys() {
			sg, mg := serial.Group(k), merged.Group(k)
			if mg == nil {
				t.Fatalf("seed %d: group %q missing after merge", seed, k)
			}
			if sg.RawRows != mg.RawRows {
				t.Fatalf("seed %d group %q: RawRows %d vs %d", seed, k, sg.RawRows, mg.RawRows)
			}
			for i := range sg.Vals {
				if !closeEnough(sg.Vals[i], mg.Vals[i]) {
					t.Fatalf("seed %d group %q agg %d: %g vs %g", seed, k, i, sg.Vals[i], mg.Vals[i])
				}
				if !closeEnough(sg.VarAcc[i], mg.VarAcc[i]) {
					t.Fatalf("seed %d group %q agg %d: VarAcc %g vs %g", seed, k, i, sg.VarAcc[i], mg.VarAcc[i])
				}
			}
			// AVG = SUM/COUNT recombines from the merged pair.
			if sg.Vals[0] != 0 {
				avgS := sg.Vals[1] / sg.Vals[0]
				avgM := mg.Vals[1] / mg.Vals[0]
				if !closeEnough(avgS, avgM) {
					t.Fatalf("seed %d group %q: AVG %g vs %g", seed, k, avgS, avgM)
				}
			}
		}
	}
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*(math.Abs(a)+math.Abs(b))
}

// Merging an empty result is the identity; merging into an empty result
// copies, preserving exactness.
func TestMergeEmptyShards(t *testing.T) {
	src := randomScanTable(3, 500)
	q := scanQuery()
	full, err := ExecuteCtx(context.Background(), src, q, ExecOptions{MarkExact: true})
	if err != nil {
		t.Fatal(err)
	}
	empty := NewResult(q.GroupBy, q.Aggs)
	if err := full.Merge(empty); err != nil {
		t.Fatal(err)
	}
	fresh := NewResult(q.GroupBy, q.Aggs)
	if err := fresh.Merge(full); err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, full, fresh)
	for _, g := range fresh.Groups() {
		if !g.Exact {
			t.Fatal("exactness lost when merging into an empty result")
		}
	}
}

// TestExactScanDeterminism: ExecuteExactCtx, which scans on every
// core, answers bit for bit as one worker does, on sources of 1, 2 and 5
// shards (make check runs it at -cpu 1,2,8).
func TestExactScanDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		db := MustNewDatabase("d", randomScanTable(int64(shards), (shards-1)*ScanShardRows+211))
		q := scanQuery()
		want, err := ExecuteCtx(context.Background(), db, q, ExecOptions{MarkExact: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteExactCtx(context.Background(), db, q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("%d shards", shards), want, got)
	}
}
