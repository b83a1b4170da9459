// Command aqpd serves the AQP middleware over HTTP: generate a database, run
// pre-processing once (or restore its output from -catalog-dir), then answer
// SQL aggregation queries from the samples. The server handles concurrent
// /v1/query requests; -workers additionally parallelises each query's rewritten
// UNION ALL over partitioned scans (and pre-processing itself).
//
// Usage:
//
//	aqpd -db tpch -z 2.0 -rows 200000 -rate 0.01 -workers 8 -addr :8080
//	curl -s localhost:8080/v1/query -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region"}'
//	curl -s localhost:8080/v1/query -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region","timeout_ms":50}'
//	curl -s localhost:8080/v1/query -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region","error_bound":0.05}'
//	curl -s localhost:8080/v1/exact -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region"}'
//	curl -s localhost:8080/v1/columns
//
// Robustness: every query runs under a deadline (-query-timeout, overridable
// per request via timeout_ms; missed deadlines return 504), concurrent query
// load beyond -max-inflight is shed with 503 + Retry-After, and SIGINT or
// SIGTERM drains in-flight requests (up to -drain-timeout) before exiting.
//
// Durability: with -catalog-dir the server keeps its pre-processed samples in
// a crash-safe snapshot catalog, and POST /v1/admin/rebuild (or
// -rebuild-interval) re-runs pre-processing in the background and swaps the
// new generation in without dropping a single query.
//
// Live ingestion: with -wal-dir the server accepts POST /v1/ingest (batched
// row appends). Each batch is fsynced to a checksummed write-ahead log before
// it is acknowledged, then folded into the serving samples online (continued
// reservoir sampling plus direct small-group inserts), so answers stay
// statistically valid without a rebuild per batch. When the common-set drift
// gauge crosses -drift-bound, a background rebuild re-derives the sample
// family and swaps it in without downtime.
//
// Start-up is flags → generate (or stripe) the base data → ingest.Recover →
// log → serve: Recover owns the order in which the catalog, pre-processing
// and the WAL are consulted (ARCHITECTURE.md §7), the same function the crash
// simulator restarts with.
//
// Flags are validated before the database is generated, so a bad value fails
// in milliseconds instead of after minutes of data generation.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/cluster"
	"dynsample/internal/core"
	"dynsample/internal/ingest"
	"dynsample/internal/obs"
	"dynsample/internal/parallel"
	"dynsample/internal/scenario"
	"dynsample/internal/server"
)

// The flags, declared at package level so that a test can list them.
var (
	addr         = flag.String("addr", ":8080", "listen address")
	dbKind       = flag.String("db", "tpch", "builtin database: "+strings.Join(scenario.BuiltinSpecs(), " or "))
	z            = flag.Float64("z", 2.0, "Zipf skew of every zipf column (>= 0)")
	rows         = flag.Int("rows", 200000, "fact rows (>= 1); the dimension tables scale with them")
	rate         = flag.Float64("rate", 0.01, "base sampling rate r, in (0, 1]")
	workers      = flag.Int("workers", parallel.DefaultWorkers(), "worker goroutines per query and for pre-processing (>= 1); 1 disables parallelism")
	seed         = flag.Int64("seed", 42, "random seed")
	queryTimeout = flag.Duration("query-timeout", 30*time.Second, "default per-query deadline; 0 disables (clients may override per request via timeout_ms)")
	maxInflight  = flag.Int("max-inflight", 0, "max concurrent /v1/query + /v1/exact requests; excess is shed with 503 + Retry-After (0 = unlimited)")
	drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long graceful shutdown waits for in-flight requests after SIGINT/SIGTERM")
	catalogDir   = flag.String("catalog-dir", "", "directory for the crash-safe snapshot catalog; samples are recovered from it at startup and every rebuild persists a new generation")
	rebuildEvery = flag.Duration("rebuild-interval", 0, "rebuild the samples periodically, swapping each new generation in without downtime (0 disables; rebuilds are also available on demand via POST /v1/admin/rebuild)")
	debugAddr    = flag.String("debug-addr", "", "listen address for the debug server (pprof, /metrics, /debug/slowlog); empty disables it")
	slowlogSize  = flag.Int("slowlog-size", obs.DefaultSlowLogSize, "how many of the slowest queries /debug/slowlog retains (0 = the default)")
	walDir       = flag.String("wal-dir", "", "directory for the ingestion write-ahead log; enables POST /v1/ingest, and durable batches found there are replayed at startup")
	driftBound   = flag.Float64("drift-bound", 1.0, "common-set drift level that triggers a background sample rebuild (negative disables the trigger)")
	maxPending   = flag.Int("max-pending", ingest.DefaultMaxPending, "max concurrently admitted ingest batches; excess is rejected with 503 + Retry-After (0 = the default)")
	scanRate     = flag.Float64("scan-rate", 0, "pin the bounded-query planner's latency model to this scan rate in rows/second; 0 learns the rate online from observed executions")

	// Cluster topology. A shard is a normal aqpd that serves one stripe of
	// the fact table; a coordinator holds no data and fans out to shards.
	shardID          = flag.Int("shard-id", -1, "serve only stripe N of the fact table (requires -shards; shard mode)")
	shards           = flag.Int("shards", 0, "total shard count the fact table is striped into (0 = not sharded)")
	coordinator      = flag.Bool("coordinator", false, "run as a cluster coordinator over -shard-addrs instead of serving local data")
	shardAddrs       = flag.String("shard-addrs", "", "comma-separated shard base URLs in shard-id order (coordinator mode)")
	shardTimeout     = flag.Duration("shard-timeout", 10*time.Second, "coordinator: default whole-request deadline, retries and hedges included")
	shardRetries     = flag.Int("shard-retries", 2, "coordinator: retries per shard sub-request on transient failures")
	hedgeAfter       = flag.Duration("hedge-after", 10*time.Millisecond, "coordinator: minimum delay before hedging a slow shard (the p95 latency raises it)")
	breakerThreshold = flag.Int("breaker-threshold", 3, "coordinator: consecutive shard failures that trip its circuit breaker")
	breakerCooldown  = flag.Duration("breaker-cooldown", 500*time.Millisecond, "coordinator: initial backoff before a tripped breaker's first half-open probe")
)

func main() {
	flag.Parse()
	if *coordinator {
		if *shards != 0 || *shardID != -1 {
			fatal(fmt.Errorf("-coordinator is exclusive with -shards/-shard-id: a coordinator serves no stripe"))
		}
		if *shardRetries < 0 || *breakerThreshold < 1 || *shardTimeout < 0 || *hedgeAfter < 0 || *breakerCooldown < 0 {
			fatal(fmt.Errorf("invalid coordinator flags: -shard-retries >= 0, -breaker-threshold >= 1, durations >= 0"))
		}
		runCoordinator(coordinatorConfig{
			addr:             *addr,
			shardAddrs:       *shardAddrs,
			shardTimeout:     *shardTimeout,
			shardRetries:     *shardRetries,
			hedgeAfter:       *hedgeAfter,
			breakerThreshold: *breakerThreshold,
			breakerCooldown:  *breakerCooldown,
			drainTimeout:     *drainTimeout,
		})
		return
	}
	// Fail fast on invalid parameters — before paying for data generation.
	if err := validateFlags(*dbKind, *rate, *rows, *z, *workers, *queryTimeout, *maxInflight, *drainTimeout, *rebuildEvery, *slowlogSize, *maxPending, *scanRate); err != nil {
		fatal(err)
	}
	if err := validateShardFlags(*shardID, *shards); err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "generating %s database (%d rows)...\n", *dbKind, *rows)
	db, err := scenario.Builtin(*dbKind, *rows, *z, *seed)
	if err != nil {
		fatal(err)
	}
	// Shard mode: every shard regenerates the same deterministic base (same
	// -db/-rows/-seed) and keeps only its contiguous stripe; pre-processing,
	// the catalog, and the WAL below all operate on that stripe alone, so a
	// shard needs its own -catalog-dir/-wal-dir.
	if *shards > 0 {
		if db, err = cluster.Stripe(db, *shardID, *shards); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "aqpd: serving shard %d of %d (%d rows of the stripe)\n",
			*shardID, *shards, db.NumRows())
	}

	sys := core.NewSystem(db)
	strategy := core.NewSmallGroup(core.SmallGroupConfig{BaseRate: *rate, Seed: *seed, Workers: *workers, ScanRowsPerSecond: *scanRate})
	var cat *catalog.Catalog
	if *catalogDir != "" {
		if cat, err = catalog.Open(*catalogDir, catalog.Options{}); err != nil {
			fatal(err)
		}
	}

	var wal *ingest.WAL
	if *walDir != "" {
		if wal, err = ingest.OpenWAL(*walDir); err != nil {
			fatal(err)
		}
	}
	// The reservoir seed must be stable across restarts so replay reproduces
	// the sample family bit-identically; the drift threshold's fraction is
	// the family's own, restored or built.
	rec, err := ingest.Recover(sys, cat, wal, strategy, ingest.Config{
		Online:     core.OnlineConfig{Seed: *seed},
		MaxPending: *maxPending,
		DriftBound: *driftBound,
	})
	if err != nil {
		fatal(err)
	}
	logRecovery(rec, wal, sys.PreprocessTime("smallgroup"), *catalogDir, *walDir)

	websrv := server.New(sys, server.Config{
		Strategy:       "smallgroup",
		DefaultTimeout: *queryTimeout,
		MaxInflight:    *maxInflight,
		SlowLogSize:    *slowlogSize,
		ShardID:        *shardID,
		Shards:         *shards,
		Rebuild: server.RebuildConfig{
			Strategy: strategy,
			Catalog:  cat,
			Workers:  *workers,
		},
		Ingest: rec.Coordinator,
	})
	websrv.MarkGeneration(rec.Generation, rec.Source)
	srv := &http.Server{
		Addr:    *addr,
		Handler: websrv.Handler(),
		// Bounded at every stage so no connection can hold resources
		// forever: header read (slowloris), full request read, response
		// write, and keep-alive idle.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeoutFor(*queryTimeout),
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		go serveDebug(dln, websrv)
		fmt.Fprintf(os.Stderr, "aqpd: debug server (pprof, /metrics, /debug/slowlog) on %s\n", dln.Addr())
	}
	if *rebuildEvery > 0 {
		go websrv.AutoRebuild(ctx, *rebuildEvery)
		fmt.Fprintf(os.Stderr, "aqpd: rebuilding samples every %v\n", *rebuildEvery)
	}
	fmt.Fprintf(os.Stderr, "aqpd listening on %s (%d workers, query timeout %v, max in-flight %s)\n",
		ln.Addr(), *workers, *queryTimeout, inflightLabel(*maxInflight))
	err = server.Serve(ctx, srv, ln, *drainTimeout)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "aqpd: signal received, draining in-flight requests...")
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "aqpd: shutdown complete")
}

// logRecovery narrates what ingest.Recover found and did.
func logRecovery(rec *ingest.Recovery, wal *ingest.WAL, preprocess time.Duration, catalogDir, walDir string) {
	for _, sk := range rec.Skipped {
		fmt.Fprintf(os.Stderr, "aqpd: skipping catalog generation %d: %v\n", sk.Generation, sk.Err)
	}
	if rec.Source == "preprocess" {
		if ck := rec.Checkpoint; catalogDir != "" && ck.DataGen > 0 {
			fmt.Fprintf(os.Stderr, "pre-processed the configured family over %s's checkpoint (%d ingest batches)\n", catalogDir, ck.DataGen)
		} else if catalogDir != "" {
			fmt.Fprintf(os.Stderr, "no usable snapshot in %s; pre-processed from scratch\n", catalogDir)
		}
		fmt.Fprintf(os.Stderr, "pre-processing done in %v\n", preprocess.Round(time.Millisecond))
		if rec.SaveErr != nil {
			fmt.Fprintf(os.Stderr, "aqpd: warning: samples built but not persisted: %v\n", rec.SaveErr)
		} else if rec.Generation > 0 {
			fmt.Fprintf(os.Stderr, "saved sample generation %d to %s\n", rec.Generation, catalogDir)
		}
	} else {
		ck := rec.Checkpoint
		fmt.Fprintf(os.Stderr, "recovered sample generation %d from %s (checkpoint: %d ingest batches, wal position %d/%d)\n",
			rec.Generation, catalogDir, ck.DataGen, ck.Seg, ck.Off)
	}
	if rec.GCErr != nil {
		fmt.Fprintf(os.Stderr, "aqpd: warning: wal segment gc: %v\n", rec.GCErr)
	} else if rec.GCRemoved > 0 {
		fmt.Fprintf(os.Stderr, "aqpd: removed %d checkpoint-covered wal segments\n", rec.GCRemoved)
	}
	// OpenWAL truncates a torn tail before Replay sees the segment, so the
	// crash signature usually surfaces via wal.Torn(), not rs.Torn.
	rs := rec.Replay
	if rs.Torn || (wal != nil && wal.Torn()) {
		fmt.Fprintf(os.Stderr, "aqpd: wal had a torn tail (crash mid-append); it was discarded\n")
	}
	if rs.Batches > 0 || rs.Covered > 0 {
		fmt.Fprintf(os.Stderr, "aqpd: replayed %d ingest batches from %s in %v (%d segments, %d bytes scanned, %d checkpoint-covered batches skipped; generation %d)\n",
			rs.Batches, walDir, rs.Elapsed.Round(time.Millisecond), rs.Segments, rs.Bytes, rs.Covered, rec.Coordinator.Generation())
	}
}

// writeTimeoutFor sizes the connection write timeout around the query
// deadline: the handler's compute time counts against WriteTimeout, so it
// must comfortably exceed the slowest admitted query.
func writeTimeoutFor(queryTimeout time.Duration) time.Duration {
	if queryTimeout <= 0 {
		return 5 * time.Minute
	}
	return queryTimeout + 30*time.Second
}

func inflightLabel(n int) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprint(n)
}

// validateShardFlags checks the shard-mode pair: both or neither.
func validateShardFlags(shardID, shards int) error {
	if shards < 0 {
		return fmt.Errorf("invalid -shards %d: must be >= 0 (0 = not sharded)", shards)
	}
	if shards == 0 {
		if shardID != -1 {
			return fmt.Errorf("-shard-id %d given without -shards", shardID)
		}
		return nil
	}
	if shardID < 0 || shardID >= shards {
		return fmt.Errorf("invalid -shard-id %d: must be in [0, %d) with -shards %d", shardID, shards, shards)
	}
	return nil
}

// validateFlags rejects out-of-range parameters with actionable messages.
func validateFlags(dbKind string, rate float64, rows int, z float64, workers int, queryTimeout time.Duration, maxInflight int, drainTimeout time.Duration, rebuildEvery time.Duration, slowlogSize int, maxPending int, scanRate float64) error {
	if err := scenario.CheckBuiltin(dbKind, rows, z); err != nil {
		return fmt.Errorf("invalid -db/-rows/-z: %w", err)
	}
	if rate <= 0 || rate > 1 {
		return fmt.Errorf("invalid -rate %g: the base sampling rate must be in (0, 1]", rate)
	}
	if workers < 1 {
		return fmt.Errorf("invalid -workers %d: must be >= 1", workers)
	}
	if queryTimeout < 0 {
		return fmt.Errorf("invalid -query-timeout %v: must be >= 0 (0 disables the default deadline)", queryTimeout)
	}
	if maxInflight < 0 {
		return fmt.Errorf("invalid -max-inflight %d: must be >= 0 (0 means unlimited)", maxInflight)
	}
	if drainTimeout < 0 {
		return fmt.Errorf("invalid -drain-timeout %v: must be >= 0 (0 waits indefinitely)", drainTimeout)
	}
	if rebuildEvery < 0 {
		return fmt.Errorf("invalid -rebuild-interval %v: must be >= 0 (0 disables periodic rebuilds)", rebuildEvery)
	}
	if slowlogSize < 0 {
		return fmt.Errorf("invalid -slowlog-size %d: must be >= 0 (0 means the default size)", slowlogSize)
	}
	if maxPending < 0 {
		return fmt.Errorf("invalid -max-pending %d: must be >= 0 (0 means the default)", maxPending)
	}
	if scanRate < 0 {
		return fmt.Errorf("invalid -scan-rate %g: must be >= 0 (0 learns the rate online)", scanRate)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aqpd:", err)
	os.Exit(1)
}
