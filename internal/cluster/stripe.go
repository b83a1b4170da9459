package cluster

import (
	"fmt"

	"dynsample/internal/engine"
)

// Stripe materializes shard id's partition of db: the contiguous fact row
// range [id·N/M, (id+1)·N/M) as a fact slice (engine.Database.FactSlice),
// joined to db's own dimension tables, so a shard has the same star shape as
// a single node and stores each dimension value once. Contiguous striping
// keeps the partitions disjoint and exhaustive — the property that makes
// cross-shard Result.Merge purely additive — and the returned database keeps
// db's name so the same SQL compiles unchanged on every shard.
func Stripe(db *engine.Database, id, shards int) (*engine.Database, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: shards must be positive, got %d", shards)
	}
	if id < 0 || id >= shards {
		return nil, fmt.Errorf("cluster: shard id %d out of range [0, %d)", id, shards)
	}
	n := db.NumRows()
	lo, hi := id*n/shards, (id+1)*n/shards
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	return db.FactSlice(db.Name, rows, nil), nil
}
