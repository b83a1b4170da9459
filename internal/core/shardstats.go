package core

import (
	"fmt"
	"sort"

	"dynsample/internal/engine"
)

// This file implements per-shard summary statistics for the scatter-gather
// cluster tier, following "Approximate Partition Selection using Summary
// Statistics" (see PAPERS.md): each shard registers a compact summary of its
// partition when it joins the cluster, and the coordinator uses the
// summaries for three things — deriving per-shard deadlines from scan
// rates, pruning shards whose value sets provably exclude a query's
// predicate, and quantifying what a missing shard costs so a partial answer
// can carry an honest widened error bound instead of a silent hole.

// shardColumnValueCap bounds how many distinct values one column summary
// records. Columns past the cap are marked Truncated and can no longer prove
// absence, so the coordinator must treat them as "may contain anything".
const shardColumnValueCap = 256

// ShardColumnStats summarises one string column of a shard's partition.
type ShardColumnStats struct {
	// Values is the column's distinct values on this shard, sorted, capped
	// at shardColumnValueCap entries.
	Values []string `json:"values,omitempty"`
	// Truncated is set when the column had more distinct values than the
	// cap; Values is then a subset and absence proves nothing.
	Truncated bool `json:"truncated,omitempty"`
}

// ShardStats is the summary one shard registers with the coordinator at
// join time. All fields are conservative: the coordinator uses them to
// widen error bounds and prune work, so a stale summary can make answers
// looser or fan-out wider, never wrong.
type ShardStats struct {
	// ShardID and Shards identify the shard's slot in the partition scheme.
	ShardID int `json:"shard_id"`
	Shards  int `json:"shards"`
	// Rows is the shard's partition size (fact rows).
	Rows int64 `json:"rows"`
	// SampleRows is the total rows across the shard's sample tables — the
	// work a full-fraction plan scans, used for deadline derivation.
	SampleRows int64 `json:"sample_rows"`
	// RareMass is the fraction of the shard's rows living in small group
	// tables (rare rows / base rows, worst column). A missing shard with
	// high rare mass can hide entire exact groups, so the coordinator
	// reports group-level completeness more cautiously.
	RareMass float64 `json:"rare_mass"`
	// Generation is the shard's data generation at summary time.
	Generation uint64 `json:"generation"`
	// ScanRowsPerSecond is the shard's calibrated scan throughput, for
	// per-shard deadline derivation from a request's time bound.
	ScanRowsPerSecond float64 `json:"scan_rows_per_second"`
	// Columns summarises the shard's string columns by value set, enabling
	// shard pruning (a query filtering on region='east' skips shards whose
	// region set excludes 'east') and per-group completeness of partials.
	Columns map[string]ShardColumnStats `json:"columns,omitempty"`
}

// ComputeShardStats builds the join summary for this process's partition:
// row counts and sample sizes from the named strategy's prepared state, the
// rare-row mass from its catalog, and per-column value sets from the base
// view (string columns only; high-cardinality columns are truncated and
// marked as such).
func ComputeShardStats(sys *System, strategy string, shardID, shards int) (*ShardStats, error) {
	p, ok := sys.Prepared(strategy)
	if !ok {
		return nil, fmt.Errorf("core: strategy %q not registered", strategy)
	}
	db, gen := sys.Data()
	st := &ShardStats{
		ShardID:           shardID,
		Shards:            shards,
		Rows:              int64(db.NumRows()),
		SampleRows:        p.SampleRows(),
		Generation:        gen,
		ScanRowsPerSecond: p.scanRate(),
		Columns:           make(map[string]ShardColumnStats),
	}
	if meta := p.Meta(); meta.BaseRows > 0 {
		for _, cm := range meta.Columns() {
			if mass := float64(cm.RareRows) / float64(meta.BaseRows); mass > st.RareMass {
				st.RareMass = mass
			}
		}
	}
	for _, name := range db.Columns() {
		t, err := db.ColumnType(name)
		if err != nil || t != engine.String {
			continue
		}
		vcs, err := db.DistinctValues(name)
		if err != nil {
			return nil, err
		}
		cs := ShardColumnStats{}
		if len(vcs) > shardColumnValueCap {
			cs.Truncated = true
			vcs = vcs[:shardColumnValueCap]
		}
		for _, vc := range vcs {
			cs.Values = append(cs.Values, vc.Value.S)
		}
		sort.Strings(cs.Values)
		st.Columns[name] = cs
	}
	return st, nil
}

// MayContain reports whether the shard's partition may hold rows with the
// given value in the named column. It errs toward true: only a complete
// (untruncated) value set that excludes the value proves absence. The
// coordinator uses this both to prune fan-out for equality/IN predicates
// and to decide whether a missing shard could have contributed to a group.
func (s *ShardStats) MayContain(column, value string) bool {
	if s == nil || s.Columns == nil {
		return true
	}
	cs, ok := s.Columns[column]
	if !ok || cs.Truncated {
		return true
	}
	for _, v := range cs.Values {
		if v == value {
			return true
		}
	}
	return false
}

// WidenError widens a relative error estimate e to account for a missing
// fraction f of the data (0 ≤ f < 1). A group's estimate from the surviving
// shards can understate the truth by up to f/(1−f) relative to what was
// seen (the missing shards could hold up to f of the group's mass), so that
// ratio is added to the sampling error. f ≥ 1 (nothing survived) saturates
// at 1, the planner's "no better than a guess" ceiling.
func WidenError(e, f float64) float64 {
	if f <= 0 {
		return e
	}
	if f >= 1 {
		return 1
	}
	w := e + f/(1-f)
	if w > 1 {
		return 1
	}
	return w
}
