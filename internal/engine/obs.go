package engine

import "dynsample/internal/obs"

// Scan-level instrumentation. Counters are bumped once per ExecuteCtx call —
// never per row or per shard task — so the scan kernels stay untouched and
// the cost is a handful of atomic adds per query.
var (
	obsScans = obs.Default().Counter("aqp_engine_scans_total",
		"Source scans executed (one per rewrite step or exact query).")
	obsScanRows = obs.Default().Counter("aqp_engine_rows_scanned_total",
		"Rows scanned across all source scans.")
	obsScanShards = obs.Default().Counter("aqp_engine_scan_shards_total",
		"Partitioned-scan shards processed across all source scans.")
	obsLogicalBytes = obs.Default().GaugeVec("aqp_engine_logical_bytes",
		"Size of a set of tables (base, samples) at 8 bytes a numeric value and 4 a dictionary code: what the space budgets count.", "set")
	obsStoredBytes = obs.Default().GaugeVec("aqp_engine_stored_bytes",
		"Bytes a set of tables (base, samples) holds in memory, each chunk at the width it was sealed at.", "set")
)

// ObserveBytes publishes the size of one set of tables, "base" or "samples".
func ObserveBytes(set string, logical, stored int64) {
	obsLogicalBytes.With(set).Set(float64(logical))
	obsStoredBytes.With(set).Set(float64(stored))
}

// observeScan records one completed scan.
func observeScan(rows int64, shards int) {
	obsScans.Inc()
	if rows > 0 {
		obsScanRows.Add(uint64(rows))
	}
	obsScanShards.Add(uint64(shards))
}

// ShardsFor reports how many partitioned-scan shards a source of n rows is
// split into — the trace's per-step shard accounting.
func ShardsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ScanShardRows - 1) / ScanShardRows
}
