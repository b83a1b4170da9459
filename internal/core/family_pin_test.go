package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dynsample/internal/core"
	"dynsample/internal/engine"
)

// TestPreprocessWorkerCountDeterminism pins the sample family, not only its
// agreement across worker counts. Per database and per configuration under
// which scan 2 reads the seeded stream — the reservoir alone, a Levels band
// sampled at a rate below 1, a pair table — and over fact tables one row
// short of a scan shard, one shard, one row over, and two shards and a row,
// the SHA-256 of the metadata catalog and every family table must be the
// digest recorded when scan 2 was one fused loop, at every worker count. The
// catalog carries scan 1's sharded counts. The tpch star database sends its
// dimension columns through the row classifier's join. The digests were
// re-recorded once when sample rows stopped storing membership masks: they
// are the earlier build's families with the mask columns left out.
func TestPreprocessWorkerCountDeterminism(t *testing.T) {
	levels := []core.HierarchyLevel{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.08, Rate: 0.25}, {MaxFraction: 0.2, Rate: 0.05}}
	dbs := []struct {
		name  string
		build func(rows int) *engine.Database
		pair  [2]string
		want  [3]string // default, levels, pairs
	}{
		{"zipf", core.ZipfDB, [2]string{"g", "h"}, [3]string{
			"42ec3a5faccd4df1170bfffc883369ce00bea7dc53e1eed383c97f3e98573579",
			"15f6f299b715a225c24130f493b9071b28d3dd9822941b75379537187ae4836d",
			"f7ae9b953d9e8030d9a119529af17e1778f47b86192eb91f4292520109de6ad7",
		}},
		{"tpch", func(rows int) *engine.Database { return specDB(t, "tpch", rows) }, [2]string{"l_shipmode", "p_brand"}, [3]string{
			"63d00450a4556dad21c5d78aa0f8fc18547c2a56e06c3b86ba9d86a6e18cce84",
			"0e629288598271075cc469c413cdf7c0d311ee83612f36e678362a622491cff9",
			"97b14b953ad0b26a9006deabd07cb24d7236496cf56da50f6107fe4a17a025b3",
		}},
	}
	for _, d := range dbs {
		var sized []*engine.Database
		for _, rows := range []int{engine.ScanShardRows - 1, engine.ScanShardRows, engine.ScanShardRows + 1, 2*engine.ScanShardRows + 1} {
			sized = append(sized, d.build(rows))
		}
		for ci, config := range []string{"default", "levels", "pairs"} {
			for _, workers := range []int{0, 1, 2, 7} {
				cfg := core.SmallGroupConfig{BaseRate: 0.02, Seed: 5, Workers: workers}
				switch config {
				case "levels":
					cfg.Levels = levels
				case "pairs":
					cfg.Pairs = [][2]string{d.pair}
				}
				h := sha256.New()
				for _, db := range sized {
					fam := prepare(t, db, cfg)
					h.Write([]byte(fam.Meta().String()))
					for _, tbl := range core.FamilyTables(fam) {
						if err := engine.WriteBinary(tbl, h); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != d.want[ci] {
					t.Errorf("%s/%s workers=%d: the sample families hash to %s, want %s", d.name, config, workers, got, d.want[ci])
				}
			}
		}
	}
}
