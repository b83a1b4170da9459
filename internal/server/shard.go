package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
)

// This file is the shard-mode surface of the server: the raw (merge-ready)
// query response the coordinator consumes, and GET /shard, the summary a
// coordinator fetches when it admits this shard. The server deliberately
// knows nothing about the cluster topology — internal/cluster imports this
// package, never the reverse — so a shard is just a normal aqpd process
// whose responses can also be had in raw form.

// RawQueryResponse is the body of POST /v1/query and /v1/exact when the request
// sets "raw": true: the full accumulator state of the answer, suitable for
// engine.ResultFromWire + Result.Merge on the coordinator, plus the scalar
// answer metadata. Confidence intervals are deliberately absent — they are
// not additive, so the coordinator recomputes them from the merged
// accumulators.
type RawQueryResponse struct {
	Result     *engine.ResultWire `json:"result"`
	RowsRead   int64              `json:"rowsRead,omitempty"`
	ElapsedUS  int64              `json:"elapsedMicros"`
	Generation uint64             `json:"generation"`
	Degraded   bool               `json:"degraded,omitempty"`
	Plan       string             `json:"plan,omitempty"`
	Predicted  *float64           `json:"predicted,omitempty"`
	Achieved   *float64           `json:"achieved,omitempty"`
}

// shardSummary caches the (expensive: full column scans) join summary per
// data generation and served family, so a coordinator probing GET /shard on
// every breaker half-open cycle does not rescan an unchanged partition.
type shardSummary struct {
	mu       sync.Mutex
	gen      uint64
	prepared core.Prepared
	stats    *core.ShardStats
}

// shardStats implements GET /v1/shard: the summary statistics the
// coordinator registers at shard join (row counts, sample size, rare mass,
// scan rate, per-column value sets). Recomputed only when the data
// generation moved or the family was swapped: a rebuild swaps it and leaves
// the generation where it was.
func (s *Server) shardStats(*http.Request) (any, error) {
	gen := s.sys.DataGeneration()
	p, _ := s.sys.Prepared(s.strategy)
	s.shard.mu.Lock()
	defer s.shard.mu.Unlock()
	if s.shard.stats == nil || s.shard.gen != gen || s.shard.prepared != p {
		st, err := core.ComputeShardStats(s.sys, s.strategy, s.cfg.ShardID, s.cfg.Shards)
		if err != nil {
			return nil, err
		}
		s.shard.stats, s.shard.gen, s.shard.prepared = st, gen, p
	}
	return s.shard.stats, nil
}

// writeRaw writes the raw wire form of an outcome, honoring the
// PointShardBody cut hook: a registered CutHook can truncate the body
// mid-stream, which — because Content-Length is set to the full length first
// — surfaces on the coordinator side as an unexpected EOF, exactly like a
// connection dying under the response.
func (p *Pipeline) writeRaw(w http.ResponseWriter, out *Outcome) {
	raw := RawQueryResponse{
		Result:     out.Result.Wire(),
		RowsRead:   out.RowsRead,
		ElapsedUS:  out.Elapsed.Microseconds(),
		Generation: out.Generation,
		Degraded:   out.Degraded,
		Plan:       out.Plan,
		Predicted:  out.Predicted,
		Achieved:   out.Achieved,
	}
	if !faults.Active() {
		writeJSON(w, raw)
		return
	}
	b, err := json.Marshal(raw)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	b = append(b, '\n')
	n := faults.FireCut(faults.PointShardBody, p.cfg.ShardID, len(b))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b[:n])
}
