package core

import (
	"context"
	"time"

	"dynsample/internal/engine"
)

// SingleSample is the runtime the paper's single-table baselines share
// (uniform, weighted, congress, outlier): one flat sample table
// answers every query in a single step. Each row counts as its stored weight
// times Scale — the inverse sampling rate for an unweighted sample, 1 when
// the weights already are inverse inclusion probabilities — and intervals
// are drawn at Level (zero means DefaultConfidenceLevel).
type SingleSample struct {
	Table *engine.Table
	Scale float64
	Level float64
}

// Answer implements Prepared.
func (s *SingleSample) Answer(q *engine.Query) (*Answer, error) {
	return s.AnswerCtx(context.Background(), q)
}

// AnswerCtx implements ContextAnswerer.
func (s *SingleSample) AnswerCtx(ctx context.Context, q *engine.Query) (*Answer, error) {
	start := time.Now()
	plan := &RewritePlan{Query: q, Steps: []RewriteStep{StepFor(s.Table, s.Scale)}}
	res, rows, err := ExecutePlanCtx(ctx, plan)
	if err != nil {
		return nil, err
	}
	return &Answer{
		Result:    res,
		Intervals: ConfidenceIntervals(res, s.Level),
		RowsRead:  rows,
		Elapsed:   time.Since(start),
		Rewrite:   plan,
	}, nil
}

// SampleRows implements Prepared.
func (s *SingleSample) SampleRows() int64 { return int64(s.Table.NumRows()) }

// SampleBytes implements Prepared.
func (s *SingleSample) SampleBytes() int64 { return s.Table.ApproxBytes() }

// StoredBytes is what the sample table holds in memory.
func (s *SingleSample) StoredBytes() int64 { return s.Table.StoredBytes() }
