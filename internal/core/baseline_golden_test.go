package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dynsample/internal/congress"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/outlier"
	"dynsample/internal/scenario"
	"dynsample/internal/weighted"
)

// TestBaselineFamiliesGolden pins the rows every baseline draws, and the small
// group tables and outlier-indexed overall sample of small group sampling
// enhanced with outlier indexing: per family, the SHA-256 of every sample
// table's column names, values and weights — not its name — must be the
// digest recorded when each baseline still ran its own pre-processing.
// sg+outlier's was re-recorded once when sample rows stopped storing
// membership masks: it is the earlier build's family without the mask
// columns.
func TestBaselineFamiliesGolden(t *testing.T) {
	db, err := scenario.Builtin("tpch", 20000, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"l_returnflag", "l_shipmode", "s_region"}
	train := []string{
		"SELECT COUNT(*) FROM T WHERE l_shipmode IN ('l_shipmode_003', 'l_shipmode_005')",
		"SELECT COUNT(*) FROM T WHERE l_quantity >= 20",
	}
	baseline := func(sel core.OverallBuilder, seed int64) *core.SmallGroup {
		return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Columns: []string{}, Overall: sel, Seed: seed})
	}
	cases := []struct {
		name string
		st   *core.SmallGroup
		want string
	}{
		{"uniform", baseline(nil, 1), "1e63c1a99474d85d00f93f2d75c5e748a17a2e916b9b643b961bbb5b215e0ef4"},
		{"outlier", baseline(outlier.Config{Measure: "l_extendedprice", Seed: 2}, 0), "0e5826bcaf03f0ec2631ea5d38e54f1971d3949fabcb9d1212a90fd121054015"},
		{"congress-basic", baseline(congress.Config{Columns: cols, Seed: 3}, 0), "884fe8806d54910b74940a5181c33e81ff2beb391f50f82ee9e7c7dd06b7d45a"},
		{"congress-full", baseline(congress.Config{Columns: cols, Variant: congress.Full, Seed: 4}, 0), "e980e9a1bdde395aaa25f2087f8c3b1b1ceb4fc3c524f47aa750ef141b52a5f5"},
		{"weighted", baseline(weighted.Config{Workload: train, Seed: 5}, 0), "2de502b440ed4892988ce4aaeff955c5415683f5e1494362e0a1bc3b06a8f7a1"},
		{"sg+outlier", core.NewSmallGroup(core.SmallGroupConfig{BaseRate: 0.02, Seed: 6,
			Overall: outlier.Config{Measure: "l_extendedprice", Seed: 7}}), "61fb73a581b644e6b55aaada8d4c4330f1dad3a2d2fd8f932be3d542dbbb1d4a"},
	}
	for _, c := range cases {
		p, err := c.st.Preprocess(db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		for _, tbl := range core.FamilyTables(p) {
			fmt.Fprintf(h, "%q %d\n", tbl.ColumnNames(), tbl.NumRows())
			for i := range tbl.NumRows() {
				h.Write(engine.AppendKey(nil, tbl.RowValues(i)))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: the family's sample tables hash to %s, want %s", c.name, got, c.want)
		}
	}
}
