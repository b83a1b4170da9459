package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/obs"
	"dynsample/internal/server"
)

// Handler returns the coordinator's routes: the request pipeline it shares
// with a single-node server (/v1/query, /v1/exact, /v1/columns, /metrics,
// /debug/slowlog — a client should not need to know it is talking to a
// cluster), plus the cluster-specific GET /v1/shards, POST /v1/admin/probe
// and shard-aware probes.
func (c *Coordinator) Handler() http.Handler {
	p := server.NewPipeline(c, server.Config{
		Strategy:       "cluster",
		DefaultTimeout: c.cfg.DefaultTimeout,
	})
	p.Handle("GET /v1/shards", func(*http.Request) (any, error) {
		return map[string]any{"shards": c.shardStatuses()}, nil
	})
	p.Handle("POST /v1/admin/probe", func(*http.Request) (any, error) {
		return map[string]any{"shards": c.ProbeAll()}, nil
	})
	p.Handle("GET /healthz", c.health)
	p.Handle("GET /readyz", c.ready)
	return p.Handler()
}

// Schema implements server.Backend: the zero-row schema learned at join and
// the cluster-wide row count from the shards' summaries.
func (c *Coordinator) Schema() (*engine.Database, int64, error) {
	schema := c.schema.Load()
	if schema == nil {
		return nil, 0, unavailable(fmt.Errorf("no shard has joined yet; cluster schema unknown"))
	}
	var rows int64
	for _, sh := range c.shards {
		if st := sh.summary(); st != nil {
			rows += st.Rows
		}
	}
	return schema, rows, nil
}

// RawWire implements server.Backend: raw accumulators are the shard-side
// wire format; the coordinator only returns presented groups.
func (c *Coordinator) RawWire() bool { return false }

// unavailable marks err as the 503 + jittered Retry-After the cluster emits
// when it cannot answer at all.
func unavailable(err error) error {
	return &server.UnavailableError{Code: CodeShardUnavailable, Err: err}
}

// relay forwards a fatal shard envelope verbatim: the shard already said
// precisely what is wrong with the request (bad SQL, unknown column,
// unsatisfiable bounds with the best achievable figures), and every shard
// would say the same.
func (e *shardError) relay() error {
	return &server.RelayError{Status: e.status, Body: e.body, Err: e}
}

// partition splits the cluster for one query: shards provably irrelevant to
// its predicates (pruned), shards whose breaker is open (skipped — they
// count as missing), and the fan-out targets.
func (c *Coordinator) partition(q *engine.Query) (targets, pruned, skipped []*shard) {
	for _, sh := range c.shards {
		switch {
		case prunable(q, sh.summary()):
			pruned = append(pruned, sh)
		case !sh.br.Allow():
			skipped = append(skipped, sh)
		default:
			targets = append(targets, sh)
		}
	}
	obsPruned.Add(uint64(len(pruned)))
	return targets, pruned, skipped
}

// prunable reports whether the shard's summary proves it holds no row
// matching q: some equality/IN predicate over a string column whose complete
// value set excludes every predicate value. MayContain errs toward true
// (truncated or absent summaries prove nothing), so pruning can only skip
// provably-empty work — pruned is never missing.
func prunable(q *engine.Query, st *core.ShardStats) bool {
	if st == nil {
		return false
	}
	for _, p := range q.Where {
		col, vals := equalityStrings(p)
		if len(vals) == 0 {
			continue
		}
		possible := false
		for _, v := range vals {
			if st.MayContain(col, v) {
				possible = true
				break
			}
		}
		if !possible {
			return true
		}
	}
	return false
}

// equalityStrings extracts the string value set of an equality or IN
// predicate; other predicate forms return nothing and are not pruned on.
func equalityStrings(p engine.Predicate) (string, []string) {
	switch t := p.(type) {
	case *engine.InPredicate:
		var out []string
		for _, v := range t.Values() {
			if v.T != engine.String {
				return "", nil
			}
			out = append(out, v.S)
		}
		return t.Col, out
	case *engine.CmpPredicate:
		if t.Op == engine.Eq && t.Val.T == engine.String {
			return t.Col, []string{t.Val.S}
		}
	}
	return "", nil
}

// fanOut runs one query against every target concurrently, under the
// request deadline ctx carries, and returns the per-shard outcomes indexed by
// shard id. A fatal error is a property of the request, so the first one
// (in shard order) is returned for relay.
func (c *Coordinator) fanOut(ctx context.Context, path string, req *server.QueryRequest, targets []*shard, exact bool) ([]*server.Outcome, error) {
	defer obs.TraceFrom(ctx).StartStage("execute")()
	answers := make([]*server.Outcome, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for _, sh := range targets {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			perTry := sh.perTryTimeout(req, exact)
			answers[sh.id], errs[sh.id] = sh.do(ctx, path, shardBody(req, perTry), perTry)
		}(sh)
	}
	wg.Wait()
	for _, sh := range targets {
		if se, ok := errs[sh.id].(*shardError); ok && se.fatal() {
			return nil, se.relay()
		}
	}
	return answers, nil
}

// Query implements server.Backend: prune, fan out, merge the survivors, and
// — when shards are missing — widen the error figures and demote exactness.
func (c *Coordinator) Query(ctx context.Context, q *engine.Query, req *server.QueryRequest) (*server.Outcome, error) {
	start := time.Now()
	targets, pruned, skipped := c.partition(q)
	answers, err := c.fanOut(ctx, "/v1/query", req, targets, false)
	if err != nil {
		return nil, err
	}
	var contributing []*shard
	missing := skipped
	for _, sh := range targets {
		if answers[sh.id] != nil {
			contributing = append(contributing, sh)
		} else {
			missing = append(missing, sh)
		}
	}
	if len(contributing) == 0 {
		return nil, unavailable(unavailableErr(missing, len(pruned)))
	}
	out, err := mergeAnswers(contributing, answers)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		obsPartial.Inc()
		demoteExact(out.Result, q.GroupBy, missing)
		out.Partial, out.MissingShards = true, shardIDs(missing)
	}
	// Intervals are not additive; accumulators are. Recompute from the merge.
	out.Intervals = core.ConfidenceIntervals(out.Result, req.Confidence)
	achieved := core.AchievedError(out.Result, out.Intervals)
	if out.Partial {
		f := missingFraction(contributing, missing)
		achieved = core.WidenError(achieved, f)
		if out.Predicted != nil {
			p := core.WidenError(*out.Predicted, f)
			out.Predicted = &p
		}
	}
	// A partial answer always states its (widened) realized error, even on
	// unbounded queries — the client must be able to see what the holes cost.
	if out.Partial || out.Predicted != nil {
		out.Achieved = &achieved
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// Exact implements server.Backend. It refuses to degrade: an exact answer
// computed over a subset of the data would be silently wrong, which is worse
// than no answer.
func (c *Coordinator) Exact(ctx context.Context, q *engine.Query, req *server.QueryRequest) (*server.Outcome, error) {
	start := time.Now()
	targets, _, skipped := c.partition(q)
	if len(skipped) > 0 {
		return nil, unavailable(fmt.Errorf("exact query needs every shard; shards %v are unavailable (circuit open)",
			shardIDs(skipped)))
	}
	answers, err := c.fanOut(ctx, "/v1/exact", req, targets, true)
	if err != nil {
		return nil, err
	}
	var failed []*shard
	for _, sh := range targets {
		if answers[sh.id] == nil {
			failed = append(failed, sh)
		}
	}
	if len(failed) > 0 {
		return nil, unavailable(unavailableErr(failed, 0))
	}
	out, err := mergeAnswers(targets, answers)
	if err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// mergeAnswers merges the contributing shards' results in ascending shard-id
// order (deterministic output) and folds their metadata: rows sum,
// generation is the minimum (the answer includes at least every batch up to
// it on every shard), degraded ORs, predicted error takes the conservative
// maximum, and plan is the shared name or "mixed".
func mergeAnswers(contributing []*shard, answers []*server.Outcome) (*server.Outcome, error) {
	out := &server.Outcome{}
	maxPred := math.Inf(-1)
	for _, sh := range contributing {
		ans := answers[sh.id]
		if out.Result == nil {
			out.Result = ans.Result
		} else if err := out.Result.Merge(ans.Result); err != nil {
			return nil, fmt.Errorf("merging shard %d: %w", sh.id, err)
		}
		out.RowsRead += ans.RowsRead
		out.Degraded = out.Degraded || ans.Degraded
		if out.Generation == 0 || ans.Generation < out.Generation {
			out.Generation = ans.Generation
		}
		if ans.Plan != "" {
			switch out.Plan {
			case "", ans.Plan:
				out.Plan = ans.Plan
			default:
				out.Plan = "mixed"
			}
		}
		if ans.Predicted != nil && *ans.Predicted > maxPred {
			maxPred = *ans.Predicted
		}
	}
	if !math.IsInf(maxPred, -1) {
		out.Predicted = &maxPred
	}
	return out, nil
}

// demoteExact clears the Exact flag of any merged group a missing shard may
// still hold rows for: the surviving shards' exact small-group answer is no
// longer the whole truth. Only a missing shard whose complete value sets
// exclude the group's key values provably cannot contribute.
func demoteExact(res *engine.Result, groupBy []string, missing []*shard) {
	res.Each(func(_ engine.GroupKey, g *engine.Group) {
		if !g.Exact {
			return
		}
		for _, sh := range missing {
			if shardMayHoldGroup(sh.summary(), groupBy, g.Key) {
				g.Exact = false
				break
			}
		}
	})
}

func shardMayHoldGroup(st *core.ShardStats, groupBy []string, key []engine.Value) bool {
	if st == nil {
		return true
	}
	for i, col := range groupBy {
		if i >= len(key) || key[i].T != engine.String {
			continue
		}
		if !st.MayContain(col, key[i].S) {
			return false
		}
	}
	return true
}

func unavailableErr(missing []*shard, pruned int) error {
	parts := make([]string, 0, len(missing))
	for _, sh := range missing {
		sh.mu.Lock()
		last := sh.lastErr
		sh.mu.Unlock()
		if last != nil {
			parts = append(parts, fmt.Sprintf("shard %d: %v", sh.id, last))
		} else {
			parts = append(parts, fmt.Sprintf("shard %d: circuit open", sh.id))
		}
	}
	if pruned > 0 {
		return fmt.Errorf("no shard available to answer (%d pruned as irrelevant): %s",
			pruned, strings.Join(parts, "; "))
	}
	return fmt.Errorf("no shard available to answer: %s", strings.Join(parts, "; "))
}

// ShardStatus is one entry of GET /shards and /healthz: the operator's view
// of a cluster member.
type ShardStatus struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Joined is true once the shard has ever registered a summary.
	Joined     bool   `json:"joined"`
	Rows       int64  `json:"rows,omitempty"`
	SampleRows int64  `json:"sample_rows,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	LastError  string `json:"last_error,omitempty"`
}

func (c *Coordinator) shardStatuses() []ShardStatus {
	out := make([]ShardStatus, 0, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		st, lastErr := sh.stats, sh.lastErr
		sh.mu.Unlock()
		s := ShardStatus{
			ID:     sh.id,
			Addr:   sh.addr,
			State:  sh.br.State().String(),
			Joined: st != nil,
		}
		if st != nil {
			s.Rows, s.SampleRows, s.Generation = st.Rows, st.SampleRows, st.Generation
		}
		if lastErr != nil {
			s.LastError = lastErr.Error()
		}
		out = append(out, s)
	}
	return out
}

// health implements GET /healthz: degraded while any breaker is not closed.
func (c *Coordinator) health(*http.Request) (any, error) {
	statuses := c.shardStatuses()
	health := "ok"
	for _, s := range statuses {
		if s.State != breakerClosed.String() {
			health = "degraded"
			break
		}
	}
	return map[string]any{"status": health, "shards": statuses}, nil
}

// ready implements GET /readyz: ready once the cluster can answer anything
// at all — the schema is known and at least one breaker is closed.
func (c *Coordinator) ready(*http.Request) (any, error) {
	if c.schema.Load() != nil {
		for _, sh := range c.shards {
			if sh.br.Allow() {
				return map[string]any{"status": "ready"}, nil
			}
		}
	}
	return nil, unavailable(fmt.Errorf("no shard joined and available yet"))
}
