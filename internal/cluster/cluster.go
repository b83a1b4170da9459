// Package cluster is the scatter-gather tier over shard-mode aqpd servers.
//
// A shard is an ordinary aqpd process serving one contiguous stripe of the
// fact table (see Stripe) with Config.Shards set, which makes its /v1
// surface additionally answer raw (merge-ready accumulator) queries and
// expose GET /shard, a join summary. The coordinator speaks only that public
// wire surface: it partitions nothing itself, fans each query out to every
// shard whose summary cannot prove irrelevance, and re-merges the partial
// per-group accumulators with engine.Result.Merge — the same combination
// step a single process uses across its UNION ALL plan, so the merged
// estimates and confidence intervals are identical to the single-node answer
// when every shard contributes.
//
// The robustness model, in order of escalation:
//
//   - per-shard deadlines derived from the request's time bound and the
//     shard's registered scan rate;
//   - hedged requests: a duplicate attempt after the shard's recent p95
//     latency, first success wins;
//   - bounded retries with jittered doubling backoff on transient failures
//     (transport errors, 5xx, truncated bodies);
//   - a per-shard circuit breaker that trips after consecutive attempt
//     failures and re-admits via half-open probes of the join endpoint, so a
//     restarted shard rejoins — with fresh summary statistics — without a
//     coordinator restart;
//   - graceful degradation: when shards are down, /query answers from the
//     survivors with "partial": true, the missing shard ids, and error
//     bounds widened by the missing data fraction (core.WidenError). /exact
//     refuses to degrade — an exact answer with holes would be a lie — and
//     returns 503 instead.
//
// The import direction is strictly cluster → server/core/engine: the server
// knows nothing of the topology, and a shard cannot accidentally depend on
// its coordinator.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynsample/internal/engine"
)

// CodeShardUnavailable is the error envelope code for answers the cluster
// cannot give because too many shards are unreachable. It rides the standard
// ErrorResponse envelope with a Retry-After, like single-node overload.
const CodeShardUnavailable = "shard_unavailable"

// The coordinator's attempt, retry and probe timings that Config does not
// set.
const (
	// perTryCeiling caps one attempt against one shard; the effective
	// deadline is usually tighter, derived from the shard's scan rate and the
	// request's time bound (see shard.perTryTimeout).
	perTryCeiling = 10 * time.Second
	// perTryFloor is the minimum per-attempt deadline, so an aggressive time
	// bound cannot starve attempts into false failures.
	perTryFloor = 100 * time.Millisecond
	// retryBackoff is the initial retry backoff, jittered over [d/2, d] and
	// doubled per retry.
	retryBackoff = 25 * time.Millisecond
	// probeTimeout bounds one half-open probe.
	probeTimeout = 2 * time.Second
)

// Config tunes the coordinator. The zero value is completed by New with the
// defaults documented per field.
type Config struct {
	// ShardAddrs are the shard base URLs, in shard-id order: ShardAddrs[i]
	// must be the server started with -shard-id i. Required.
	ShardAddrs []string
	// DefaultTimeout bounds a whole coordinator request (all retries and
	// hedges included) unless the request carries its own timeout_ms. Zero
	// means no default deadline.
	DefaultTimeout time.Duration
	// Retries is how many times a failed shard sub-request is retried
	// (default 2, i.e. up to 3 attempts).
	Retries int
	// HedgeAfterMin floors the hedge delay (default 10ms) so a consistently
	// fast shard is not duplicated on scheduling noise.
	HedgeAfterMin time.Duration
	// BreakerThreshold is how many consecutive failed attempts trip a
	// shard's breaker (default 3).
	BreakerThreshold int
	// ProbeBackoff is the first wait of the tripped breaker's re-probe
	// schedule, parallel.ProbeUntil, which doubles it, jittered, up to
	// parallel.MaxBackoff (default 500ms).
	ProbeBackoff time.Duration
}

func (cfg *Config) applyDefaults() {
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.HedgeAfterMin <= 0 {
		cfg.HedgeAfterMin = 10 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.ProbeBackoff <= 0 {
		cfg.ProbeBackoff = 500 * time.Millisecond
	}
}

// Coordinator fans queries out to the cluster's shards and merges their raw
// partial results. Construct with New, admit shards with Join, serve
// Handler. Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	client *http.Client
	shards []*shard
	// schema is the zero-row database compiled queries are validated and
	// pruned against, built from the first joined shard's GET /columns
	// (every shard serves the same view schema, only different rows).
	schema atomic.Pointer[engine.Database]
}

// New builds a coordinator over the configured shard addresses. No network
// traffic happens yet; call Join.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.ShardAddrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses configured")
	}
	cfg.applyDefaults()
	c := &Coordinator{cfg: cfg, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	for i, addr := range cfg.ShardAddrs {
		c.shards = append(c.shards, newShard(c, i, addr))
	}
	return c, nil
}

// Join registers every reachable shard: fetches its summary statistics and,
// from the first success, the cluster schema. Shards that fail to join have
// their breakers force-opened so the normal half-open probe loop keeps
// trying to admit them — the coordinator starts degraded rather than not at
// all. Returns how many shards joined; zero is not an error (the cluster
// self-heals), but the caller may want to log loudly.
func (c *Coordinator) Join(ctx context.Context) int {
	var wg sync.WaitGroup
	var joinedCount atomic.Int32
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			st, err := sh.fetchSummary(ctx)
			if err == nil {
				sh.setSummary(st)
				err = c.ensureSchema(ctx, sh)
			}
			if err != nil {
				sh.noteErr(err)
				sh.br.Open()
				return
			}
			joinedCount.Add(1)
		}(sh)
	}
	wg.Wait()
	return int(joinedCount.Load())
}

// ensureSchema builds the coordinator's zero-row schema database from a
// joined shard's GET /columns, once.
func (c *Coordinator) ensureSchema(ctx context.Context, sh *shard) error {
	if c.schema.Load() != nil {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/v1/columns", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %d: GET /v1/columns: HTTP %d", sh.id, resp.StatusCode)
	}
	var cols struct {
		Database string            `json:"database"`
		Columns  []string          `json:"columns"`
		Types    map[string]string `json:"types"`
	}
	if err := json.Unmarshal(data, &cols); err != nil {
		return fmt.Errorf("shard %d: bad columns response: %w", sh.id, err)
	}
	if cols.Database == "" || len(cols.Columns) == 0 {
		return fmt.Errorf("shard %d: empty schema", sh.id)
	}
	var ecols []*engine.Column
	for _, name := range cols.Columns {
		t, err := parseType(cols.Types[name])
		if err != nil {
			return fmt.Errorf("shard %d: column %q: %w", sh.id, name, err)
		}
		ecols = append(ecols, engine.NewColumn(name, t))
	}
	db, err := engine.NewDatabase(cols.Database, engine.NewTable(cols.Database+"_schema", ecols...))
	if err != nil {
		return err
	}
	c.schema.CompareAndSwap(nil, db)
	return nil
}

func parseType(s string) (engine.Type, error) {
	switch s {
	case engine.Int.String():
		return engine.Int, nil
	case engine.Float.String():
		return engine.Float, nil
	case engine.String.String():
		return engine.String, nil
	default:
		return 0, fmt.Errorf("unknown column type %q", s)
	}
}

// ProbeAll probes every non-closed breaker now, concurrently, and returns
// the resulting state per shard id. This is the deterministic re-admission
// path (POST /v1/admin/probe): an operator who just restarted a shard need not
// wait out the probe backoff.
func (c *Coordinator) ProbeAll() map[int]string {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		if sh.br.State() == breakerClosed {
			continue
		}
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.br.ProbeNow()
		}(sh)
	}
	wg.Wait()
	out := make(map[int]string, len(c.shards))
	for _, sh := range c.shards {
		out[sh.id] = sh.br.State().String()
	}
	return out
}

// Close stops the breakers' probe loops. In-flight requests finish.
func (c *Coordinator) Close() {
	for _, sh := range c.shards {
		sh.br.Shutdown()
	}
}

// missingFraction estimates what fraction of the cluster's rows the missing
// shards hold, from the summaries registered at join. A missing shard that
// never joined has no summary; stripes are near-equal by construction, so it
// is charged the mean of the known partitions (or an equal 1/n share when
// nothing is known). The fraction feeds core.WidenError, so overestimating
// is safe (looser bound), underestimating is not.
func missingFraction(contributing, missing []*shard) float64 {
	if len(missing) == 0 {
		return 0
	}
	var knownRows int64
	known := 0
	for _, sh := range append(append([]*shard{}, contributing...), missing...) {
		if st := sh.summary(); st != nil {
			knownRows += st.Rows
			known++
		}
	}
	mean := 1.0
	if known > 0 {
		mean = float64(knownRows) / float64(known)
	}
	rows := func(sh *shard) float64 {
		if st := sh.summary(); st != nil {
			return float64(st.Rows)
		}
		return mean
	}
	var miss, total float64
	for _, sh := range contributing {
		total += rows(sh)
	}
	for _, sh := range missing {
		miss += rows(sh)
		total += rows(sh)
	}
	if total <= 0 {
		return 1
	}
	return miss / total
}

// shardIDs lists the ids of shs, ascending.
func shardIDs(shs []*shard) []int {
	ids := make([]int, 0, len(shs))
	for _, sh := range shs {
		ids = append(ids, sh.id)
	}
	sort.Ints(ids)
	return ids
}
