package core

import (
	"fmt"
	"math/big"
	"strings"

	"dynsample/internal/bitmask"
	"dynsample/internal/engine"
)

// RewriteStep is one branch of a rewritten query: an execution of the
// original query shape against a single sample source — the overall
// sample or a small group table, each a fact slice joined to the dimension
// tables (§5.2.2), or the base data itself — with the small group tables it
// gives up to earlier steps and an aggregate scale factor.
type RewriteStep struct {
	Source engine.Source
	// Name labels the source in the rendered SQL.
	Name string
	// Exclude holds the bits of the tables whose domains the step gives up:
	// the paper's "WHERE bitmask & m = 0", as SQL renders it. Sample rows
	// store no bitmask, so ExecutePlanCtx filters no row by it: a plan the
	// planner builds drops those groups from the step's partial instead
	// (RewritePlan.owners).
	Exclude bitmask.Mask
	// Scale multiplies aggregate values (the inverse sampling rate); 1 for
	// small group tables, which are not downsampled.
	Scale float64
	// MarkExact tags produced groups as exact.
	MarkExact bool
	// MaxRows, when > 0, caps the scan at the source's first MaxRows rows —
	// the planner's sampling-fraction knob over the overall sample. That
	// sample is stored in base-row order, so the capped scan is a uniform
	// subsample of it only when base-row order is independent of the data.
	// Scale is expected to carry the compensating factor.
	MaxRows int
}

// StepFor builds an unfiltered step over a flat sample table.
func StepFor(t *engine.Table, scale float64) RewriteStep {
	return RewriteStep{Source: t, Name: t.Name, Scale: scale}
}

// RewritePlan is the rewritten form of a query under dynamic sample
// selection: the UNION ALL of its steps (§4.2.2).
//
// The steps are independent by construction: each reads a different sample
// source, and which groups a step gives up is a test on the group's key
// fixed at plan time (owners), not an execution-order dependency. They can
// therefore run concurrently; only the final combination (merging partial
// results in step order, each less the groups an earlier step owns) is
// sequential.
type RewritePlan struct {
	Query *engine.Query
	Steps []RewriteStep
	// Workers is the worker budget for executing the plan (values below 1
	// mean 1): the steps run as parallel tasks, each with a partitioned scan
	// (engine.ExecOptions.Workers), and the per-step results are merged in
	// step order — so answers are bit-identical for every worker count.
	Workers int
	// owners is the owner rule of the small group tables the first steps
	// read, in step order; the last step is the overall sample. Nil for a
	// plan of independent sources: the exact plan, or one made by hand.
	owners *owners
}

// SQL renders the plan as the UNION ALL query of §4.2.2, e.g.
//
//	SELECT A, C, COUNT(*) AS agg0 FROM sg_A GROUP BY A, C
//	UNION ALL SELECT A, C, COUNT(*) AS agg0 FROM sg_C WHERE bitmask & 1 = 0 GROUP BY A, C
//	UNION ALL SELECT A, C, COUNT(*) * 100 AS agg0 FROM sg_overall WHERE bitmask & 5 = 0 GROUP BY A, C
//
// Bitmask literals wider than 64 bits are rendered as arbitrary-precision
// decimals.
func (p *RewritePlan) SQL() string {
	var sb strings.Builder
	for i, st := range p.Steps {
		if i > 0 {
			sb.WriteString("\nUNION ALL\n")
		}
		sb.WriteString("SELECT ")
		for _, g := range p.Query.GroupBy {
			sb.WriteString(g)
			sb.WriteString(", ")
		}
		for j, a := range p.Query.Aggs {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.String())
			if st.Scale != 1 {
				fmt.Fprintf(&sb, " * %g", st.Scale)
			}
			fmt.Fprintf(&sb, " AS agg%d", j)
		}
		sb.WriteString(" FROM ")
		sb.WriteString(st.Name)
		if st.MaxRows > 0 {
			fmt.Fprintf(&sb, "[:%d]", st.MaxRows)
		}
		where := make([]string, 0, len(p.Query.Where)+1)
		for _, pr := range p.Query.Where {
			where = append(where, pr.String())
		}
		if !st.Exclude.IsZero() {
			where = append(where, fmt.Sprintf("bitmask & %s = 0", maskDecimal(st.Exclude)))
		}
		if len(where) > 0 {
			sb.WriteString(" WHERE ")
			sb.WriteString(strings.Join(where, " AND "))
		}
		if len(p.Query.GroupBy) > 0 {
			sb.WriteString(" GROUP BY ")
			sb.WriteString(strings.Join(p.Query.GroupBy, ", "))
		}
	}
	return sb.String()
}

func maskDecimal(m bitmask.Mask) string {
	v := new(big.Int)
	for _, b := range m.Bits() {
		v.SetBit(v, b, 1)
	}
	return v.String()
}
