package ingest

import "dynsample/internal/obs"

// The ingest metric family. Rates (rows, batches by outcome), the sample
// maintenance effects (reservoir swaps, small-group inserts), the drift
// gauge the rebuild policy acts on, and the WAL fsync latency histogram —
// fsync dominates ingest latency, so it gets its own distribution with
// sub-millisecond buckets.
var (
	obsRows = obs.Default().Counter("aqp_ingest_rows_total",
		"Rows appended to the base data by acknowledged ingest batches.")
	obsBatches = obs.Default().CounterVec("aqp_ingest_batches_total",
		"Ingest batches by outcome (ok, duplicate, invalid, error, overload).", "status")
	obsReservoirSwaps = obs.Default().Counter("aqp_ingest_reservoir_swaps_total",
		"Overall-sample reservoir slots replaced by ingested rows.")
	obsSmallGroupInserts = obs.Default().Counter("aqp_ingest_smallgroup_inserts_total",
		"Rows inserted into small group tables by ingest.")
	obsDrift = obs.Default().Gauge("aqp_ingest_drift",
		"Common-set drift: heaviest rare value count over the t*N threshold; crossing 1 triggers a rebuild.")
	obsRebaseSeconds = obs.Default().Gauge("aqp_ingest_rebase_seconds",
		"Duration of the last Online.Rebase: how long a completed rebuild stalled ingest writes under the writer lock.")
	obsDataGen = obs.Default().Gauge("aqp_ingest_data_generation",
		"Ingest batches applied to the serving database version.")
	obsReplayed = obs.Default().Counter("aqp_ingest_replayed_batches_total",
		"Batches re-applied from the WAL at startup.")
	obsWALFsync = obs.Default().Histogram("aqp_ingest_wal_fsync_seconds",
		"WAL fsync latency per acknowledged batch.",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5})
	obsWALSegments = obs.Default().Gauge("aqp_ingest_wal_segments",
		"WAL segments created so far (the active segment included).")

	// Checkpoint lifecycle: how much work each startup replay did (bounded by
	// ingest-since-last-checkpoint once checkpoints run), how segment GC is
	// going, and whether ingest is currently degraded by a disk fault.
	obsReplayBytes = obs.Default().Counter("aqp_ingest_replay_bytes_total",
		"Valid WAL bytes scanned during startup replays.")
	obsReplaySegments = obs.Default().Counter("aqp_ingest_replay_segments_total",
		"WAL segments scanned during startup replays.")
	obsReplaySeconds = obs.Default().Gauge("aqp_ingest_replay_seconds",
		"Wall-clock duration of the most recent startup WAL replay.")
	obsReplaySkipped = obs.Default().Counter("aqp_ingest_replay_skipped_batches_total",
		"WAL batches skipped during replay because the loaded checkpoint already covers them.")
	obsWALGCRemoved = obs.Default().Counter("aqp_ingest_wal_gc_removed_total",
		"WAL segments deleted because a checkpoint fully covers them.")
	obsWALGCErrors = obs.Default().Counter("aqp_ingest_wal_gc_errors_total",
		"WAL segment deletions that failed; retried at the next checkpoint or startup.")
	obsCheckpoints = obs.Default().CounterVec("aqp_ingest_checkpoints_total",
		"Checkpointed snapshot saves by outcome (ok, error).", "status")
	obsDegraded = obs.Default().Gauge("aqp_ingest_degraded",
		"1 while ingest is degraded (WAL write failure; queries serve, ingest returns 503), else 0.")
	obsProbes = obs.Default().CounterVec("aqp_ingest_probes_total",
		"Degraded-mode WAL re-probe attempts by outcome (ok, error).", "status")
)
