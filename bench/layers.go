package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/cluster"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/obs"
	"dynsample/internal/server"
	"dynsample/internal/sqlparse"
)

// The layers of a traced run: the same system and op list as the measured
// phase, replayed in-process one layer at a time. Every number here comes from
// timing a call into a package's public functions from this directory; nothing
// inside the program is instrumented. Names are <package>.<metric>.

const (
	microBatches = 40  // batches each ingest-layer measurement averages over
	tracedOps    = 512 // query ops the request path is traced over, rounded up to whole passes
)

// layerRun accumulates the per-layer metrics of one traced run.
type layerRun struct {
	def     workloadDef
	in      *inputs
	s       *sut
	scratch string
	tr      *tracer
	out     map[string]metric
	// saved is the freshly pre-processed sample set, encoded: what the
	// scratch systems of the ingest layers decode their own copies from.
	saved bytes.Buffer
}

func (l *layerRun) set(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// planner is what the small-group prepared state exposes beyond core.Prepared.
type planner interface {
	Plan(q *engine.Query) *core.RewritePlan
	Overall() *engine.Table
	Tables() []*engine.Table
}

// counter reads one family of the process-wide metrics registry (the same
// numbers GET /metrics serves), summed over its series. Histograms are read
// through their _count and _sum series.
func counter(name string) float64 {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return 0
	}
	var sum float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func newLayerRun(def workloadDef, in *inputs, s *sut, scratch string) *layerRun {
	return &layerRun{def: def, in: in, s: s, scratch: scratch, tr: newTracer(), out: map[string]metric{}}
}

// beforeMeasuring measures the layers that need the freshly set-up system:
// the request path, the engine and the catalog.
func (l *layerRun) beforeMeasuring(t *tally) error {
	p, _ := l.s.sys.Prepared(server.DefaultStrategy)
	l.set("scenario.generate_s", l.s.phases.Generate.Seconds(), "s")
	l.set("core.preprocess_s", l.s.phases.Preprocess.Seconds(), "s")
	l.set("catalog.save_ms", ms(l.s.phases.Save), "ms")
	l.set("core.sample_rows", float64(p.SampleRows()), "count")
	l.set("core.sample_bytes", float64(p.SampleBytes()), "B")
	l.set("core.sample_tables", float64(len(p.(planner).Tables())+1), "count")
	if err := core.SaveSmallGroup(&l.saved, p); err != nil {
		return err
	}
	steps := []func() error{
		func() error { return l.requestPath((tracedOps+l.def.PassOps-1)/l.def.PassOps, t) },
		l.engineLayers,
		l.restartLayers,
	}
	for _, step := range steps {
		runtime.GC()
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// afterEverything measures the layers that run on scratch systems of their
// own — the ingest path and the cluster tier — and writes the spans out.
func (l *layerRun) afterEverything(t *tally) error {
	for _, step := range []func(*tally) error{l.ingestLayers, l.clusterLayers} {
		runtime.GC()
		if err := step(t); err != nil {
			return err
		}
	}
	return l.tr.write(l.def.Name)
}

// requestPath measures one query op from the outside in. Every op of the
// pass order is run three ways back to back — over HTTP (span "http"), through
// the handler with a recorder instead of a socket (span "handler"), and layer
// by layer with a span around each call (span "op" and its children) — so that
// a slow spell of the host hits all three alike and the differences between
// them stay meaningful. Which of the first two goes first alternates from op
// to op, so neither always finds the caches warm.
func (l *layerRun) requestPath(passes int, t *tally) error {
	ops, order := l.in.ops, l.in.order
	db := l.s.sys.DB()
	p, _ := l.s.sys.Prepared(server.DefaultStrategy)
	pl := p.(planner)
	cl := newClient(l.s.front.url, 1)
	defer cl.close()
	h := l.s.srv.Handler()
	ctx := context.Background()

	var httpOp, handler, transport []time.Duration
	var respBytes, stepSteps, rowsPerOp, groupsPerOp []float64
	answers := make([]*server.QueryResponse, len(ops))
	opID := 0
	overHTTP := func(op *queryOp) time.Duration {
		t.attempted.Add(1)
		var err error
		d := l.tr.in("http", -1, opID, func() { _, err = cl.queryOnce(queryPath, op, -1) })
		if err != nil {
			t.fail(err)
		}
		return d
	}
	throughHandler := func(q int) (time.Duration, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, queryPath, bytes.NewReader(ops[q].Body))
		t.attempted.Add(1)
		d := l.tr.in("handler", -1, opID, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			t.fail(fmt.Errorf("handler %q: HTTP %d", ops[q].SQL, rec.Code))
			return d, nil
		}
		respBytes = append(respBytes, float64(rec.Body.Len()))
		if answers[q] == nil {
			qr, err := decodeAnswer(rec.Body.Bytes())
			if err != nil {
				return d, err
			}
			answers[q] = qr
		}
		return d, nil
	}
	// replay runs the public pieces of the answer path in sequence. An
	// unbounded op is Plan → ExecutePlanCtx → ConfidenceIntervals; a bounded
	// op's plan choice is internal to ApproxBoundsCtx, so it is one span.
	replay := func(q int) error {
		op := &ops[q]
		var req server.QueryRequest
		var stmt *sqlparse.SelectStmt
		var compiled *sqlparse.Compiled
		var res *engine.Result
		var err error
		root := l.tr.begin("op", -1, opID)
		defer func() {
			l.tr.end(root)
			opID++
		}()
		l.tr.in("server.decode", root, opID, func() { err = json.Unmarshal(op.Body, &req) })
		if err == nil {
			l.tr.in("sqlparse.parse", root, opID, func() {
				stmt, err = sqlparse.Parse(strings.TrimSuffix(strings.TrimSpace(req.SQL), ";"))
			})
		}
		if err == nil {
			l.tr.in("sqlparse.compile", root, opID, func() { compiled, err = sqlparse.Compile(stmt, db) })
		}
		if err != nil {
			return err
		}
		if op.Bounded {
			l.tr.in("core.approx_bounded", root, opID, func() {
				var ans *core.Answer
				if ans, err = l.s.sys.ApproxBoundsCtx(ctx, server.DefaultStrategy, compiled.Query, core.Bounds{ErrorBound: req.ErrorBound}); err == nil {
					res = ans.Result
				}
			})
		} else {
			var plan *core.RewritePlan
			var rows int64
			l.tr.in("core.plan", root, opID, func() { plan = pl.Plan(compiled.Query) })
			l.tr.in("core.execute", root, opID, func() { res, rows, err = core.ExecutePlanCtx(ctx, plan) })
			if err == nil {
				l.tr.in("core.ci", root, opID, func() { core.ConfidenceIntervals(res, 0) })
				stepSteps = append(stepSteps, float64(len(plan.Steps)))
				rowsPerOp = append(rowsPerOp, float64(rows))
				groupsPerOp = append(groupsPerOp, float64(res.NumGroups()))
			}
		}
		if err != nil {
			return err
		}
		l.tr.in("sqlparse.present", root, opID, func() { compiled.Present(res) })
		l.tr.in("server.encode", root, opID, func() { _, err = json.Marshal(answers[q]) })
		return err
	}
	for pass := 0; pass < passes; pass++ {
		for i, q := range order {
			var viaHTTP, viaHandler time.Duration
			var err error
			if i%2 == 0 {
				viaHTTP = overHTTP(&ops[q])
				viaHandler, err = throughHandler(q)
			} else {
				viaHandler, err = throughHandler(q)
				viaHTTP = overHTTP(&ops[q])
			}
			if err == nil {
				err = replay(q)
			}
			if err != nil {
				return fmt.Errorf("traced %q: %w", ops[q].SQL, err)
			}
			httpOp = append(httpOp, viaHTTP)
			handler = append(handler, viaHandler)
			transport = append(transport, viaHTTP-viaHandler)
		}
	}

	self, opTotals := l.tr.selfTimes(), l.tr.durations("op")
	med := func(name string) float64 { return us(medianDur(self[name])) }
	l.set("sqlparse.parse_us", med("sqlparse.parse"), "us")
	l.set("sqlparse.compile_us", med("sqlparse.compile"), "us")
	l.set("sqlparse.present_us", med("sqlparse.present"), "us")
	l.set("core.plan_us", med("core.plan"), "us")
	l.set("core.execute_us", med("core.execute"), "us")
	l.set("core.ci_us", med("core.ci"), "us")
	l.set("core.plan_steps", median(stepSteps), "count")
	l.set("core.rows_scanned_per_op", median(rowsPerOp), "count")
	l.set("engine.groups_per_op", median(groupsPerOp), "count")
	l.set("server.encode_us", med("server.encode"), "us")
	l.set("server.response_bytes", median(respBytes), "B")
	httpUS, transportUS := us(medianDur(httpOp)), us(medianDur(transport))
	l.set("server.http_op_us", httpUS, "us")
	l.set("server.handler_us", us(medianDur(handler)), "us")
	l.set("server.transport_us", transportUS, "us")

	// Reconciliation. Along the blocking path of one op the measured layers
	// are the transport and every child span of the replay; what the handler
	// does beyond them (answer assembly, request tracking, admission, metrics,
	// the slow log) is the unmeasured rest. The traced op is the replay's root
	// span, which also pays for recording the spans.
	children := make([]time.Duration, len(opTotals))
	rest := make([]time.Duration, len(opTotals))
	for i, total := range opTotals {
		children[i] = total - self["op"][i]
		rest[i] = handler[i] - children[i]
	}
	l.set("server.handler_rest_us", us(medianDur(rest)), "us")
	l.set("trace.coverage_share", (us(medianDur(children))+transportUS)/httpUS, "ratio")
	l.set("trace.overhead_share", (us(medianDur(opTotals))+transportUS)/httpUS-1, "ratio")

	// Whole-call timings of the two core entry points, outside the trace.
	var approx, planner []time.Duration
	var cands []float64
	for i := range ops {
		q := ops[i].Query
		start := time.Now()
		if _, err := l.s.sys.ApproxCtx(ctx, server.DefaultStrategy, q); err != nil {
			return err
		}
		approx = append(approx, time.Since(start))
		start = time.Now()
		cs, _, err := l.s.sys.PreviewPlans(server.DefaultStrategy, q, core.Bounds{ErrorBound: boundedBound})
		if err != nil {
			return err
		}
		planner = append(planner, time.Since(start))
		cands = append(cands, float64(len(cs)))
	}
	l.set("core.approx_us", us(medianDur(approx)), "us")
	l.set("core.planner_us", us(medianDur(planner)), "us")
	l.set("core.planner_candidates", median(cands), "count")
	return nil
}

// engineLayers times the scan kernel, the exact scan, the step merge, the
// two-worker speed-up and the appender directly.
func (l *layerRun) engineLayers() error {
	ctx := context.Background()
	p, _ := l.s.sys.Prepared(server.DefaultStrategy)
	pl := p.(planner)
	overall := pl.Overall()
	db := l.s.sys.DB()
	var scanNS, scanAllocs, exactNS, merge, speedup []float64
	var mem0, mem1 runtime.MemStats
	for i := range l.in.ops {
		q := l.in.ops[i].Query
		runtime.ReadMemStats(&mem0)
		start := time.Now()
		res, err := engine.ExecuteCtx(ctx, overall, q, engine.ExecOptions{Workers: 1})
		el := time.Since(start)
		runtime.ReadMemStats(&mem1)
		if err != nil {
			return err
		}
		scanNS = append(scanNS, float64(el.Nanoseconds())/float64(res.RowsScanned))
		scanAllocs = append(scanAllocs, float64(mem1.Mallocs-mem0.Mallocs)/float64(res.RowsScanned))

		plan := pl.Plan(q)
		partials := make([]*engine.Result, len(plan.Steps))
		for si, st := range plan.Steps {
			if partials[si], err = engine.ExecuteCtx(ctx, st.Source, q, engine.ExecOptions{
				Scale: st.Scale, ExcludeMask: st.Exclude, MarkExact: st.MarkExact, Workers: 1,
			}); err != nil {
				return err
			}
		}
		start = time.Now()
		combined := engine.NewResult(q.GroupBy, q.Aggs)
		for _, part := range partials {
			if err := combined.Merge(part); err != nil {
				return err
			}
		}
		merge = append(merge, us(time.Since(start)))

		if i%8 != 0 { // the base-table scans below cost ~100 ms each
			continue
		}
		start = time.Now()
		ex, err := engine.ExecuteExactCtx(ctx, db, q)
		if err != nil {
			return err
		}
		exactNS = append(exactNS, float64(time.Since(start).Nanoseconds())/float64(ex.RowsScanned))
		var w [2]time.Duration
		for wi, workers := range []int{1, 2} {
			start = time.Now()
			if _, err := engine.ExecuteCtx(ctx, db, q, engine.ExecOptions{Workers: workers}); err != nil {
				return err
			}
			w[wi] = time.Since(start)
		}
		speedup = append(speedup, float64(w[0])/float64(w[1]))
	}
	l.set("engine.scan_ns_per_row", median(scanNS), "ns")
	l.set("engine.scan_allocs_per_row", median(scanAllocs), "count")
	l.set("engine.exact_ns_per_row", median(exactNS), "ns")
	l.set("engine.merge_us", median(merge), "us")
	l.set("parallel.speedup_x", median(speedup), "ratio")

	base, err := generateDB(l.def.Rows) // a private lineage to append to
	if err != nil {
		return err
	}
	app, err := engine.NewAppender(base)
	if err != nil {
		return err
	}
	var appendUS []float64
	for i := 0; i < microBatches; i++ {
		rows := l.in.batches.rows(i)
		start := time.Now()
		if _, err := app.Append(rows); err != nil {
			return err
		}
		appendUS = append(appendUS, us(time.Since(start))/float64(len(rows)))
	}
	l.set("engine.append_us_per_row", median(appendUS), "us")
	return nil
}

// restartLayers times the pieces of a recovery: the verified catalog read and
// the sample-set decode.
func (l *layerRun) restartLayers() error {
	var loads []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, err := l.s.cat.LoadLatest(func(r io.Reader) error {
			_, derr := ingest.DecodeSnapshot(r)
			return derr
		})
		if err != nil {
			return err
		}
		loads = append(loads, time.Since(start))
	}
	l.set("catalog.load_ms", ms(medianDur(loads)), "ms")
	fi, err := os.Stat(l.s.cat.Path(l.s.cat.Generation()))
	if err != nil {
		return err
	}
	l.set("catalog.snapshot_bytes", float64(fi.Size()), "B")

	var decodes []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := core.LoadSmallGroup(bytes.NewReader(l.saved.Bytes())); err != nil {
			return err
		}
		decodes = append(decodes, time.Since(start))
	}
	l.set("core.load_ms", ms(medianDur(decodes)), "ms")
	return nil
}

// ingestLayers walks the write path on scratch systems, so it runs the same
// on every workload: WAL alone, Online.Apply alone, the coordinator, the HTTP
// handler, then a rebuild with checkpoint under query load, a tail, and the
// replay a restart would do. Each scratch system gets its own regenerated
// base data and its own decoded copy of the sample set: copy-on-write
// appends assume a single writer lineage, so nothing may be shared with the
// primary or between the scratch systems.
func (l *layerRun) ingestLayers(t *tally) error {
	scratchSys := func() (*core.System, error) {
		base, err := generateDB(l.def.Rows)
		if err != nil {
			return nil, err
		}
		own, err := core.LoadSmallGroup(bytes.NewReader(l.saved.Bytes()))
		if err != nil {
			return nil, err
		}
		if wc, ok := own.(core.WorkerConfigurable); ok {
			wc.SetWorkers(l.def.Workers)
		}
		sys := core.NewSystem(base)
		sys.AddPrepared(server.DefaultStrategy, own)
		return sys, nil
	}
	seq := 0
	nextRows := func() [][]engine.Value { seq++; return l.in.batches.rows(seq) }

	// WAL alone: frame + write + fsync of a real batch payload.
	wal, err := ingest.OpenWAL(filepath.Join(l.scratch, "wal-alone"))
	if err != nil {
		return err
	}
	var appends []time.Duration
	var walBytes int64
	for i := 0; i < microBatches; i++ {
		payload, err := ingest.EncodeBatch(&ingest.Batch{Seq: uint64(i + 1), ID: fmt.Sprintf("wal-%d", i), Rows: nextRows()})
		if err != nil {
			return err
		}
		_, before := wal.Position()
		start := time.Now()
		if err := wal.Append(payload); err != nil {
			return err
		}
		appends = append(appends, time.Since(start))
		_, after := wal.Position()
		walBytes += after - before
	}
	if err := wal.Close(); err != nil {
		return err
	}
	l.set("ingest.wal_append_us", us(medianDur(appends)), "us")
	l.set("ingest.wal_bytes_per_row", float64(walBytes)/float64(microBatches*batchRows), "B")

	// Online.Apply alone: classifier, reservoir, small-group inserts, publish.
	sys, err := scratchSys()
	if err != nil {
		return err
	}
	online, err := core.NewOnline(sys, server.DefaultStrategy, ingestConfig(0).Online)
	if err != nil {
		return err
	}
	var applies []float64
	for i := 0; i < microBatches; i++ {
		rows := nextRows()
		start := time.Now()
		if _, err := online.Apply(uint64(i+1), rows); err != nil {
			return err
		}
		applies = append(applies, us(time.Since(start))/float64(len(rows)))
	}
	l.set("core.online_apply_us_per_row", median(applies), "us")

	// A scratch serving system with the full ingest path.
	if sys, err = scratchSys(); err != nil {
		return err
	}
	dir := filepath.Join(l.scratch, "ingest-layers")
	cat, err := catalog.Open(filepath.Join(dir, "catalog"), catalog.Options{})
	if err != nil {
		return err
	}
	if wal, err = ingest.OpenWAL(filepath.Join(dir, "wal")); err != nil {
		return err
	}
	coord, err := ingest.New(sys, wal, ingestConfig(0))
	if err != nil {
		return err
	}
	srv := server.New(sys, server.Config{
		Rebuild: server.RebuildConfig{Strategy: smallGroup(l.def.Workers), Catalog: cat, Workers: l.def.Workers},
		Ingest:  coord,
	})
	front, err := serve(srv.Handler())
	if err != nil {
		return err
	}
	defer func() {
		front.stop()
		coord.Close()
		wal.Close()
	}()

	fsync0 := counter("aqp_ingest_wal_fsync_seconds_count")
	var direct []time.Duration
	for i := 0; i < microBatches; i++ {
		rows := nextRows()
		start := time.Now()
		if _, err := coord.Ingest(fmt.Sprintf("direct-%d", i), rows); err != nil {
			return err
		}
		direct = append(direct, time.Since(start))
	}
	l.set("ingest.coordinator_us", us(medianDur(direct)), "us")
	l.set("ingest.fsyncs_per_batch", (counter("aqp_ingest_wal_fsync_seconds_count")-fsync0)/microBatches, "count")

	h := srv.Handler()
	var handled []time.Duration
	for i := 0; i < microBatches; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, ingestPath, bytes.NewReader(l.in.batches.body("h", i)))
		start := time.Now()
		h.ServeHTTP(rec, req)
		handled = append(handled, time.Since(start))
		t.attempted.Add(1)
		if rec.Code != http.StatusOK {
			t.fail(fmt.Errorf("ingest handler: HTTP %d: %s", rec.Code, rec.Body.Bytes()))
		}
	}
	l.set("server.ingest_handler_us", us(medianDur(handled)), "us")

	cl := newClient(front.url, 1)
	defer cl.close()

	// Background work as its own timed phase: a rebuild with checkpoint while
	// one client keeps querying — the foreground stall it causes.
	stop := make(chan struct{})
	stalls := make(chan []time.Duration, 1)
	go func() {
		var lat []time.Duration
		for i := 0; ; i++ {
			select {
			case <-stop:
				stalls <- lat
				return
			default:
			}
			start := time.Now()
			t.attempted.Add(1)
			if _, err := cl.queryOnce(queryPath, &l.in.ops[i%len(l.in.ops)], -1); err != nil {
				t.fail(err)
			}
			lat = append(lat, time.Since(start))
		}
	}()
	start := time.Now()
	st, err := srv.Rebuild()
	rebuild := time.Since(start)
	close(stop)
	during := <-stalls
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if !st.Persisted || st.PersistError != "" {
		return fmt.Errorf("rebuild did not checkpoint: %+v", st)
	}
	l.set("server.rebuild_s", rebuild.Seconds(), "s")
	l.set("server.rebuild_query_p50_ms", ms(medianDur(during)), "ms")

	start = time.Now()
	ck, err := coord.SaveCheckpoint(cat)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	l.set("ingest.checkpoint_s", time.Since(start).Seconds(), "s")
	fi, err := os.Stat(cat.Path(ck.Generation))
	if err != nil {
		return err
	}
	l.set("ingest.checkpoint_bytes", float64(fi.Size()), "B")

	// A tail past the checkpoint, then the replay a restart performs.
	for i := 0; i < microBatches; i++ {
		if _, err := coord.Ingest(fmt.Sprintf("tail-%d", i), nextRows()); err != nil {
			return err
		}
	}
	if err := front.stop(); err != nil {
		return err
	}
	coord.Close()
	if err := wal.Close(); err != nil {
		return err
	}
	recoverDef := l.def
	recoverDef.Kind = ingestOnly // recover through the WAL on every workload
	base, err := generateDB(l.def.Rows)
	if err != nil {
		return err
	}
	r, err := (&sut{def: recoverDef, dir: dir}).restart(base)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	// The deferred shutdown now stops the recovered system instead.
	front, coord, wal = r.front, r.coord, r.wal
	if r.replay.Batches != microBatches {
		return fmt.Errorf("replayed %d batches, the tail had %d", r.replay.Batches, microBatches)
	}
	l.set("ingest.replay_rows_per_s", float64(r.replay.Batches*batchRows)/r.replay.Elapsed.Seconds(), "1/s")
	return nil
}

// clusterLayers records the scatter-gather tier: two stripes of the base
// data behind a coordinator, all in this process. It runs on groupby_scan
// only (large answers are what the tier re-merges); elsewhere the metrics
// read 0.
func (l *layerRun) clusterLayers(t *tally) error {
	l.set("cluster.stripe_s", 0, "s")
	l.set("cluster.query_p50_ms", 0, "ms")
	l.set("cluster.overhead_ms", 0, "ms")
	l.set("cluster.shards_pruned_share", 0, "ratio")
	if l.def.Name != "groupby_scan" {
		return nil
	}
	const shards = 2
	start := time.Now()
	var fronts []*frontend
	var addrs []string
	defer func() {
		for _, f := range fronts {
			f.stop()
		}
	}()
	for id := 0; id < shards; id++ {
		stripe, err := cluster.Stripe(l.s.base, id, shards) // the primary never ingests in a traced run
		if err != nil {
			return err
		}
		sys := core.NewSystem(stripe)
		if err := sys.AddStrategy(smallGroup(l.def.Workers)); err != nil {
			return err
		}
		f, err := serve(server.New(sys, server.Config{Shards: shards, ShardID: id}).Handler())
		if err != nil {
			return err
		}
		fronts = append(fronts, f)
		addrs = append(addrs, f.url)
	}
	l.set("cluster.stripe_s", time.Since(start).Seconds(), "s")

	// Hedging is a timer-triggered duplicate request; at one second it never
	// fires inside a measured op.
	coord, err := cluster.New(cluster.Config{ShardAddrs: addrs, HedgeAfterMin: time.Second})
	if err != nil {
		return err
	}
	defer coord.Close()
	if joined := coord.Join(context.Background()); joined != shards {
		return fmt.Errorf("cluster: %d of %d shards joined", joined, shards)
	}
	cf, err := serve(coord.Handler())
	if err != nil {
		return err
	}
	fronts = append(fronts, cf)

	cc := newClient(cf.url, 1)
	defer cc.close()
	pruned0, reqs0 := counter("aqp_cluster_shards_pruned_total"), counter("aqp_cluster_shard_requests_total")
	var viaCoord, slowestShard []time.Duration
	for pass := 0; pass < 3; pass++ {
		for i := range l.in.ops {
			op := &l.in.ops[i]
			t.attempted.Add(1)
			start := time.Now()
			_, err := cc.queryOnce(queryPath, op, -1)
			viaCoord = append(viaCoord, time.Since(start))
			if err != nil {
				t.fail(err)
			}
		}
	}
	pruned := counter("aqp_cluster_shards_pruned_total") - pruned0
	sent := counter("aqp_cluster_shard_requests_total") - reqs0
	if pruned+sent > 0 {
		l.set("cluster.shards_pruned_share", pruned/(pruned+sent), "ratio")
	}
	// The same ops straight at each shard in the raw wire form the
	// coordinator asks for; the slower shard is what the coordinator waits on.
	for i := range l.in.ops {
		body, err := json.Marshal(server.QueryRequest{SQL: l.in.ops[i].SQL, Raw: true})
		if err != nil {
			return err
		}
		var slowest time.Duration
		for _, addr := range addrs {
			sc := newClient(addr, 1)
			start := time.Now()
			status, _, err := sc.post(queryPath, body)
			if d := time.Since(start); d > slowest {
				slowest = d
			}
			sc.close()
			t.attempted.Add(1)
			if err != nil || status != http.StatusOK {
				t.fail(fmt.Errorf("shard %s: HTTP %d: %v", addr, status, err))
			}
		}
		slowestShard = append(slowestShard, slowest)
	}
	l.set("cluster.query_p50_ms", ms(medianDur(viaCoord)), "ms")
	l.set("cluster.overhead_ms", ms(medianDur(viaCoord))-ms(medianDur(slowestShard)), "ms")
	return nil
}
