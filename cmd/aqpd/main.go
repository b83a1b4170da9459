// Command aqpd serves the AQP middleware over HTTP: generate (or restore) a
// database, run pre-processing once, then answer SQL aggregation queries
// from the samples. The server handles concurrent /query requests; -workers
// additionally parallelises each query's rewritten UNION ALL over
// partitioned scans (and pre-processing itself).
//
// Usage:
//
//	aqpd -db tpch -z 2.0 -rows 200000 -rate 0.01 -workers 8 -addr :8080
//	curl -s localhost:8080/query -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region"}'
//	curl -s localhost:8080/query -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region","timeout_ms":50}'
//	curl -s localhost:8080/query -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region","error_bound":0.05}'
//	curl -s localhost:8080/exact -d '{"sql":"SELECT s_region, COUNT(*) FROM T GROUP BY s_region"}'
//	curl -s localhost:8080/columns
//
// Robustness: every query runs under a deadline (-query-timeout, overridable
// per request via timeout_ms; missed deadlines return 504), concurrent query
// load beyond -max-inflight is shed with 503 + Retry-After, and SIGINT or
// SIGTERM drains in-flight requests (up to -drain-timeout) before exiting.
//
// Durability: with -catalog-dir the server keeps its pre-processed samples in
// a crash-safe snapshot catalog. At startup it recovers the newest generation
// that verifies (falling back to older ones, then to a fresh rebuild — the
// catalog self-heals); POST /admin/rebuild (or -rebuild-interval) re-runs
// pre-processing in the background and swaps the new generation in without
// dropping a single query.
//
// Live ingestion: with -wal-dir the server accepts POST /v1/ingest (batched
// row appends). Each batch is fsynced to a checksummed write-ahead log before
// it is acknowledged, then folded into the serving samples online (continued
// reservoir sampling plus direct small-group inserts), so answers stay
// statistically valid without a rebuild per batch. On restart the WAL is
// replayed over the regenerated base data before the listener opens. When the
// common-set drift gauge crosses -drift-bound, a background rebuild re-derives
// the sample family and swaps it in without downtime.
//
// Flags are validated before the database is generated, so a bad value fails
// in milliseconds instead of after minutes of data generation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/cluster"
	"dynsample/internal/core"
	"dynsample/internal/datagen"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/parallel"
	"dynsample/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dbKind       = flag.String("db", "tpch", "database: tpch or sales")
		z            = flag.Float64("z", 2.0, "Zipf skew (>= 0)")
		rows         = flag.Int("rows", 200000, "fact rows (>= 1)")
		rate         = flag.Float64("rate", 0.01, "base sampling rate r, in (0, 1]")
		workers      = flag.Int("workers", parallel.DefaultWorkers(), "worker goroutines per query and for pre-processing (>= 1); 1 disables parallelism")
		seed         = flag.Int64("seed", 42, "random seed")
		restore      = flag.String("restore", "", "load a pre-processed sample set (see aqpcli -save)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "default per-query deadline; 0 disables (clients may override per request via timeout_ms)")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrent /query + /exact requests; excess is shed with 503 + Retry-After (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long graceful shutdown waits for in-flight requests after SIGINT/SIGTERM")
		catalogDir   = flag.String("catalog-dir", "", "directory for the crash-safe snapshot catalog; samples are recovered from it at startup and every rebuild persists a new generation")
		rebuildEvery = flag.Duration("rebuild-interval", 0, "rebuild the samples periodically, swapping each new generation in without downtime (0 disables; rebuilds are also available on demand via POST /admin/rebuild)")
		debugAddr    = flag.String("debug-addr", "", "listen address for the debug server (pprof, /metrics, /debug/slowlog); empty disables it")
		slowlogSize  = flag.Int("slowlog-size", 0, "how many of the slowest queries /debug/slowlog retains (0 = default)")
		walDir       = flag.String("wal-dir", "", "directory for the ingestion write-ahead log; enables POST /v1/ingest, and durable batches found there are replayed at startup")
		driftBound   = flag.Float64("drift-bound", 1.0, "common-set drift level that triggers a background sample rebuild (negative disables the trigger)")
		maxPending   = flag.Int("max-pending", 0, "max concurrently admitted ingest batches; excess is rejected with 503 + Retry-After (0 = default 64)")
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
	var (
		db  *engine.Database
		err error
	)
	switch *dbKind {
	case "tpch":
		db, err = datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 1, Zipf: *z, RowsPerSF: *rows, Seed: *seed})
	case "sales":
		db, err = datagen.Sales(datagen.SalesConfig{FactRows: *rows, Zipf: *z, Seed: *seed})
	}
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

	// Startup recovery order: an explicit -restore file wins; otherwise the
	// catalog's newest verifying generation; otherwise pre-process from
	// scratch (and, with a catalog, persist the fresh build as generation 1 —
	// a catalog whose snapshots all fail verification self-heals this way).
	// Catalog snapshots may be checkpointed (they carry the ingested-row
	// delta, the idempotency window, and the WAL position they cover) or
	// legacy bare sample sets; DecodeSnapshot handles both.
	var gen uint64
	var snap *ingest.Snapshot
	source := "preprocess"
	switch {
	case *restore != "":
		f, err := os.Open(*restore)
		if err != nil {
			fatal(err)
		}
		p, err := core.LoadSmallGroupAny(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if wc, ok := p.(core.WorkerConfigurable); ok {
			wc.SetWorkers(*workers)
		}
		sys.AddPrepared("smallgroup", p)
		source = "snapshot"
		fmt.Fprintf(os.Stderr, "restored sample set from %s\n", *restore)
	case cat != nil:
		res, err := cat.LoadLatest(func(r io.Reader) error {
			s, derr := ingest.DecodeSnapshot(r)
			if derr != nil {
				return derr
			}
			// A checkpointed delta splices onto the regenerated base at a
			// fixed row offset; a different base (changed -rows/-db/-seed)
			// makes this generation unusable, so fail the decode and let
			// LoadLatest fall back to an older one.
			if s.Checkpoint != nil && s.Checkpoint.BaseRows != uint64(db.NumRows()) {
				return fmt.Errorf("checkpoint covers %d base rows but the regenerated base has %d (changed -rows, -db, or -seed?)",
					s.Checkpoint.BaseRows, db.NumRows())
			}
			snap = s
			return nil
		})
		for _, sk := range res.Skipped {
			fmt.Fprintf(os.Stderr, "aqpd: skipping catalog generation %d: %v\n", sk.Generation, sk.Err)
		}
		switch {
		case err == nil:
			if wc, ok := snap.Prepared.(core.WorkerConfigurable); ok {
				wc.SetWorkers(*workers)
			}
			if err := snap.Restore(sys, "smallgroup"); err != nil {
				fatal(err)
			}
			gen, source = res.Generation, "snapshot"
			if ck := snap.Checkpoint; ck != nil {
				fmt.Fprintf(os.Stderr, "recovered sample generation %d from %s (checkpoint: %d ingest batches, wal position %d/%d)\n",
					res.Generation, *catalogDir, ck.DataGen, ck.Seg, ck.Off)
			} else {
				fmt.Fprintf(os.Stderr, "recovered sample generation %d from %s\n", res.Generation, *catalogDir)
			}
		case errors.Is(err, catalog.ErrNoSnapshot):
			fmt.Fprintf(os.Stderr, "no usable snapshot in %s; pre-processing from scratch...\n", *catalogDir)
			preprocess(sys, strategy)
			if g, err := cat.Save(func(w io.Writer) error {
				p, _ := sys.Prepared("smallgroup")
				return core.SaveSmallGroup(w, p)
			}); err != nil {
				fmt.Fprintf(os.Stderr, "aqpd: warning: samples built but not persisted: %v\n", err)
			} else {
				gen = g
				fmt.Fprintf(os.Stderr, "saved sample generation %d to %s\n", g, *catalogDir)
			}
		default:
			fatal(err)
		}
	default:
		preprocess(sys, strategy)
	}

	// Live ingestion: open the WAL, attach the coordinator to the prepared
	// samples, and replay every durable batch onto the regenerated base
	// before the listener accepts a single request. The reservoir seed must
	// be stable across restarts so replay reproduces the sample family
	// bit-identically; SmallGroupFraction is supplied explicitly because
	// snapshot-restored states do not carry it.
	var coord *ingest.Coordinator
	if *walDir != "" {
		w, err := ingest.OpenWAL(*walDir)
		if err != nil {
			fatal(err)
		}
		baseRows := 0
		if snap != nil && snap.Checkpoint != nil {
			baseRows = int(snap.Checkpoint.BaseRows)
			// Finish any segment GC a crash interrupted: everything below the
			// restored checkpoint's position is fully covered by the snapshot.
			if removed, err := w.RemoveSegmentsBelow(snap.Checkpoint.Seg); err != nil {
				fmt.Fprintf(os.Stderr, "aqpd: warning: wal segment gc: %v\n", err)
			} else if removed > 0 {
				fmt.Fprintf(os.Stderr, "aqpd: removed %d checkpoint-covered wal segments\n", removed)
			}
		}
		coord, err = ingest.New(sys, w, ingest.Config{
			Online: core.OnlineConfig{
				Seed:               *seed,
				SmallGroupFraction: 0.5 * *rate,
			},
			MaxPending: *maxPending,
			DriftBound: *driftBound,
			BaseRows:   baseRows,
		})
		if err != nil {
			fatal(err)
		}
		if snap != nil && len(snap.IDs) > 0 {
			coord.SeedIdempotency(snap.IDs)
		}
		rs, err := coord.ReplayWAL()
		if err != nil {
			fatal(fmt.Errorf("wal replay: %w", err))
		}
		// OpenWAL truncates a torn tail before Replay sees the segment, so
		// the crash signature usually surfaces via w.Torn(), not rs.Torn.
		if rs.Torn || w.Torn() {
			fmt.Fprintf(os.Stderr, "aqpd: wal had a torn tail (crash mid-append); it was discarded\n")
		}
		if rs.Batches > 0 || rs.Covered > 0 {
			fmt.Fprintf(os.Stderr, "aqpd: replayed %d ingest batches from %s in %v (%d segments, %d bytes scanned, %d checkpoint-covered batches skipped; generation %d)\n",
				rs.Batches, *walDir, rs.Elapsed.Round(time.Millisecond), rs.Segments, rs.Bytes, rs.Covered, coord.Generation())
		}
	}

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
		Ingest: coord,
	})
	websrv.MarkGeneration(gen, source)
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

// preprocess runs the strategy's pre-processing phase, reporting its wall
// time like every aqpd start always has.
func preprocess(sys *core.System, strategy core.Strategy) {
	start := time.Now()
	if err := sys.AddStrategy(strategy); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pre-processing done in %v\n", time.Since(start).Round(time.Millisecond))
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
	switch dbKind {
	case "tpch", "sales":
	default:
		return fmt.Errorf("invalid -db %q: must be \"tpch\" or \"sales\"", dbKind)
	}
	if rate <= 0 || rate > 1 {
		return fmt.Errorf("invalid -rate %g: the base sampling rate must be in (0, 1]", rate)
	}
	if rows < 1 {
		return fmt.Errorf("invalid -rows %d: need at least 1 fact row", rows)
	}
	if z < 0 {
		return fmt.Errorf("invalid -z %g: Zipf skew must be >= 0", z)
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
