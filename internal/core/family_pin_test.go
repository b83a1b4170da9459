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
// dimension columns through the row classifier's join.
func TestPreprocessWorkerCountDeterminism(t *testing.T) {
	levels := []core.HierarchyLevel{{MaxFraction: 0.01, Rate: 1}, {MaxFraction: 0.08, Rate: 0.25}, {MaxFraction: 0.2, Rate: 0.05}}
	dbs := []struct {
		name  string
		build func(rows int) *engine.Database
		pair  [2]string
		want  [3]string // default, levels, pairs
	}{
		{"zipf", core.ZipfDB, [2]string{"g", "h"}, [3]string{
			"e2042af0c2a6610bc39c852b69396bcaf7ae64a090913bc80602d2e9c27668b9",
			"44657a612e4a9a65c7ed3d4a2a68546f462fc7a4716f14a3488b9af3892de9ab",
			"4429581b7d380826729782bcd9ae527513e2db069e96e1101ac0b9240d575056",
		}},
		{"tpch", func(rows int) *engine.Database { return specDB(t, "tpch", rows) }, [2]string{"l_shipmode", "p_brand"}, [3]string{
			"6a73986f4dc43fb1f03af27923b91a3e112ddac58ee0e7505119fce180efc765",
			"cef4494596c7e5a4586531b78d6f88d356924ba54eb7d06af2850a81c4da911c",
			"5a9538d32c12534412fff0cffe4f1dedb0b8afcfa208fb4bdd63d9185b11a070",
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
