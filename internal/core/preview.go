package core

import (
	"fmt"

	"dynsample/internal/engine"
)

// PreviewPlans enumerates the candidate plans for q exactly as AnswerBounds
// would — same descriptors, same confidence resolution, same feasibility
// predicate — but selects, builds and executes nothing. The scenario harness
// uses it to compare what the planner *promised* for a query against the
// error it actually achieved, which is the measurement behind the
// correlated-columns accuracy study in EXPERIMENTS.md.
func (p *smallGroupPrepared) PreviewPlans(q *engine.Query, b Bounds) ([]PlanCandidate, []string, error) {
	cands, caveats := p.enumerate(q, p.confidence(b), p.scanRate(), true)
	for i := range cands {
		cands[i].Feasible = b.admits(&cands[i].PlanCandidate)
	}
	return cheapestFirst(cands), caveats, nil
}

// PreviewPlans exposes the named strategy's plan enumeration without running
// anything: every candidate with its predicted error and latency, feasibility
// judged against b.
func (s *System) PreviewPlans(strategy string, q *engine.Query, b Bounds) ([]PlanCandidate, []string, error) {
	p, ok := s.set.Load().prepared[strategy]
	if !ok {
		return nil, nil, fmt.Errorf("core: strategy %q not registered", strategy)
	}
	if err := q.Validate(s.DB()); err != nil {
		return nil, nil, err
	}
	return p.PreviewPlans(q, b)
}
