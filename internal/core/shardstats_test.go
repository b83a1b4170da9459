package core

import (
	"encoding/json"
	"testing"
)

func TestComputeShardStats(t *testing.T) {
	db := skewedDB(t, 20000)
	sys := NewSystem(db)
	cfg := SmallGroupConfig{BaseRate: 0.02, SmallGroupFraction: 0.08, DistinctLimit: 100, Seed: 1}
	if err := sys.AddStrategy(NewSmallGroup(cfg)); err != nil {
		t.Fatal(err)
	}
	name := NewSmallGroup(cfg).Name()
	st, err := ComputeShardStats(sys, name, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardID != 2 || st.Shards != 8 {
		t.Errorf("shard slot = %d/%d, want 2/8", st.ShardID, st.Shards)
	}
	if st.Rows != 20000 {
		t.Errorf("rows = %d, want 20000", st.Rows)
	}
	if st.SampleRows <= 0 {
		t.Errorf("sampleRows = %d, want > 0", st.SampleRows)
	}
	if st.ScanRowsPerSecond <= 0 {
		t.Errorf("scanRate = %v, want > 0", st.ScanRowsPerSecond)
	}
	// a has 12 distinct string values, b has 4; both should be summarised
	// completely. Int columns (m, u) must not appear.
	for _, col := range []string{"m", "u"} {
		if _, ok := st.Columns[col]; ok {
			t.Errorf("non-string column %q summarised", col)
		}
	}
	a := st.Columns["a"]
	if a.Truncated || len(a.Values) != 12 {
		t.Errorf("column a summary = %d values truncated=%v, want 12 complete", len(a.Values), a.Truncated)
	}
	if !st.MayContain("a", "A0") {
		t.Error("MayContain denies a value the shard holds")
	}
	if st.MayContain("a", "Z9") {
		t.Error("MayContain admits a value a complete summary excludes")
	}
	// Unsummarised columns and unknown columns must err toward true.
	if !st.MayContain("m", "1") || !st.MayContain("nope", "x") {
		t.Error("MayContain denies on a column with no summary")
	}

	// The summary must survive its JSON trip to the coordinator.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var rt ShardStats
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Rows != st.Rows || len(rt.Columns) != len(st.Columns) {
		t.Error("ShardStats did not survive JSON round trip")
	}
	if rt.MayContain("a", "Z9") {
		t.Error("round-tripped summary lost its value set")
	}
}

func TestComputeShardStatsUnknownStrategy(t *testing.T) {
	sys := NewSystem(skewedDB(t, 100))
	if _, err := ComputeShardStats(sys, "nope", 0, 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestMayContainTruncated(t *testing.T) {
	st := &ShardStats{Columns: map[string]ShardColumnStats{
		"c": {Values: []string{"x"}, Truncated: true},
	}}
	if !st.MayContain("c", "y") {
		t.Error("truncated summary used to prove absence")
	}
	var nilStats *ShardStats
	if !nilStats.MayContain("c", "y") {
		t.Error("nil stats must admit everything")
	}
}

func TestWidenError(t *testing.T) {
	cases := []struct{ e, f, want float64 }{
		{0.05, 0, 0.05},  // nothing missing: unchanged
		{0.05, -1, 0.05}, // negative clamps to unchanged
		{0, 0.5, 1},      // half the data gone: +1.0 relative, capped
		{0.1, 0.2, 0.35}, // 0.1 + 0.2/0.8
		{0.2, 1, 1},      // everything gone saturates
		{0.9, 0.5, 1},    // cap at 1
	}
	for _, tc := range cases {
		if got := WidenError(tc.e, tc.f); !almostEq(got, tc.want) {
			t.Errorf("WidenError(%v, %v) = %v, want %v", tc.e, tc.f, got, tc.want)
		}
	}
	// Widening is monotone in the missing fraction.
	prev := -1.0
	for f := 0.0; f < 1; f += 0.05 {
		w := WidenError(0.03, f)
		if w < prev {
			t.Fatalf("WidenError not monotone at f=%v: %v < %v", f, w, prev)
		}
		prev = w
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}
