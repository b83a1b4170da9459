package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dynsample/internal/binio"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/faults"
)

// This file is the shard-mode surface of the server: the raw (merge-ready)
// query answer the coordinator consumes, one binio frame, and GET /shard,
// the summary a coordinator fetches when it admits this shard. The server
// deliberately
// knows nothing about the cluster topology — internal/cluster imports this
// package, never the reverse — so a shard is just a normal aqpd process
// whose responses can also be had in raw form.

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
// coordinator registers at shard join (row counts, sample size,
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

// rawVersion is the layout of a raw answer's frame. Coordinator and shards
// are one binary, so there is no negotiation: a frame of another version is
// refused, naming both.
const rawVersion = 1

// encodeRaw encodes out as a raw answer: the body of POST /v1/query and
// /v1/exact when the request sets "raw": true. It is one binio frame whose
// payload is
//
//	[version u8][RowsRead u64][Elapsed ns u64][Generation u64][Degraded flag]
//	[Plan string][Predicted flag][f64 if set][Achieved flag][f64 if set]
//	[the result section, engine.AppendPartial]
//
// Confidence intervals are deliberately absent: they are not additive, so
// the coordinator recomputes them from the merged accumulators.
func encodeRaw(out *Outcome) []byte {
	le := binary.LittleEndian
	p := make([]byte, binio.FrameHeader, 64+len(out.Plan))
	p = le.AppendUint64(append(p, rawVersion), uint64(out.RowsRead))
	p = le.AppendUint64(le.AppendUint64(p, uint64(out.Elapsed)), out.Generation)
	p = binio.AppendString(binio.AppendBool(p, out.Degraded), out.Plan)
	for _, f := range []*float64{out.Predicted, out.Achieved} {
		if p = binio.AppendBool(p, f != nil); f != nil {
			p = le.AppendUint64(p, math.Float64bits(*f))
		}
	}
	return binio.SealFrame(engine.AppendPartial(p, out.Result))
}

// DecodeRaw reads a raw answer, the whole body a shard sent. Any damage —
// a truncated body, a flipped byte, bytes past the frame, another version,
// a result section ReadPartial refuses — is an error.
func DecodeRaw(b []byte) (*Outcome, error) {
	p, ok := binio.ParseFrame(b, len(b))
	if !ok || binio.FrameHeader+len(p) != len(b) {
		return nil, fmt.Errorf("raw answer: %d bytes are not one frame with a good checksum", len(b))
	}
	in := binio.NewBytesReader(p)
	if v := in.U8(); in.Err() == nil && v != rawVersion {
		return nil, fmt.Errorf("raw answer: frame version %d, this build reads version %d", v, rawVersion)
	}
	out := &Outcome{RowsRead: int64(in.U64()), Elapsed: time.Duration(in.U64()), Generation: in.U64()}
	out.Degraded, out.Plan = in.Bool(), in.String(1<<16) // a plan name: ample
	for _, f := range []**float64{&out.Predicted, &out.Achieved} {
		if in.Bool() {
			v := in.F64()
			*f = &v
		}
	}
	res, err := engine.ReadPartial(in)
	switch {
	case err != nil:
		return nil, fmt.Errorf("raw answer: %w", err)
	case in.Len() != 0:
		return nil, fmt.Errorf("raw answer: %d trailing bytes after the result", in.Len())
	}
	out.Result = res
	return out, nil
}

// writeRaw writes the raw answer of an outcome, honoring the PointShardBody
// cut hook: a registered CutHook can truncate the body mid-stream, which —
// because Content-Length is set to the full length first — surfaces on the
// coordinator side as an unexpected EOF, exactly like a connection dying
// under the response.
func (p *Pipeline) writeRaw(w http.ResponseWriter, out *Outcome) {
	b := encodeRaw(out)
	n := faults.FireCut(faults.PointShardBody, p.cfg.ShardID, len(b))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b[:n])
}
