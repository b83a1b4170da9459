package core

import (
	"fmt"

	"dynsample/internal/engine"
)

// PlanPreviewer is implemented by Prepared states that can enumerate their
// candidate plans — with §4.4 error predictions and calibrated latency
// predictions — without executing anything. The scenario harness uses it to
// compare what the planner *promised* for a query against the error it
// actually achieved, which is the measurement behind the correlated-columns
// accuracy study in EXPERIMENTS.md.
type PlanPreviewer interface {
	// PreviewPlans returns every candidate the planner would consider for q
	// under b (cheapest first), with Feasible set per the bounds, plus the
	// prediction caveats for the full plan.
	PreviewPlans(q *engine.Query, b Bounds) ([]PlanCandidate, []string, error)
}

// PreviewPlans enumerates the candidate plans for q exactly as AnswerBounds
// would — same descriptors, same confidence resolution, same feasibility
// predicate — but selects, builds and executes nothing.
func (p *smallGroupPrepared) PreviewPlans(q *engine.Query, b Bounds) ([]PlanCandidate, []string, error) {
	cands, _, caveats := p.enumerate(q, p.confidence(b), true)
	for i := range cands {
		cands[i].Feasible = b.admits(&cands[i].PlanCandidate)
	}
	return cheapestFirst(cands), caveats, nil
}

// PreviewPlans exposes the named strategy's plan enumeration without running
// anything: every candidate with its predicted error and latency, feasibility
// judged against b. Strategies whose runtime state does not implement
// PlanPreviewer return an error.
func (s *System) PreviewPlans(strategy string, q *engine.Query, b Bounds) ([]PlanCandidate, []string, error) {
	p, ok := s.set.Load().prepared[strategy]
	if !ok {
		return nil, nil, fmt.Errorf("core: strategy %q not registered", strategy)
	}
	pv, ok := p.(PlanPreviewer)
	if !ok {
		return nil, nil, fmt.Errorf("core: strategy %q does not support plan preview", strategy)
	}
	if err := q.Validate(s.DB()); err != nil {
		return nil, nil, err
	}
	return pv.PreviewPlans(q, b)
}
