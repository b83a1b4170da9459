package cluster

import "dynsample/internal/obs"

// Cluster-tier metrics, served by the coordinator's GET /metrics. The shard
// label is the shard's numeric id, so a dashboard can tell which member of
// the fan-out is retrying, hedging, or tripped.
var (
	obsShardReqs = obs.Default().CounterVec("aqp_cluster_shard_requests_total",
		"Shard sub-requests by terminal status (ok, transient, fatal).",
		"shard", "status")
	obsShardRetries = obs.Default().CounterVec("aqp_cluster_shard_retries_total",
		"Bounded retries of shard sub-requests after transient failures.",
		"shard")
	obsShardHedges = obs.Default().CounterVec("aqp_cluster_shard_hedges_total",
		"Hedged (duplicate) shard sub-requests launched after the latency percentile.",
		"shard")
	obsShardLatency = obs.Default().HistogramVec("aqp_cluster_shard_latency_seconds",
		"Latency of completed shard sub-requests.",
		nil, "shard")
	obsBreakerState = obs.Default().GaugeVec("aqp_cluster_breaker_state",
		"Per-shard circuit breaker position: 0 closed, 1 open, 2 half-open.",
		"shard")
	obsProbes = obs.Default().CounterVec("aqp_cluster_probes_total",
		"Half-open breaker probes by outcome (ok, error).",
		"shard", "status")
	obsPartial = obs.Default().Counter("aqp_cluster_partial_answers_total",
		"Answers served from a strict subset of shards (partial: true).")
	obsPruned = obs.Default().Counter("aqp_cluster_shards_pruned_total",
		"Shards skipped because their summary value sets excluded the query's predicate.")
)
