package core

import (
	"time"

	"dynsample/internal/obs"
)

// Runtime-phase instrumentation: what dynamic sample selection chose and
// what it cost, aggregated across queries. Per-query detail rides the
// obs.Trace on the request context instead (see AnswerCtx).
var (
	obsAnswers = obs.Default().CounterVec("aqp_core_answers_total",
		"Approximate answers produced, by strategy.", "strategy")
	obsPlanSteps = obs.Default().Histogram("aqp_core_plan_steps",
		"Rewrite steps (sample tables) per selected plan.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	obsDegraded = obs.Default().Counter("aqp_core_degraded_total",
		"Plans degraded to the overall sample under deadline pressure.")
	obsSampleRows = obs.Default().Counter("aqp_core_sample_rows_scanned_total",
		"Sample-table rows scanned by approximate answers.")
)

// Planner instrumentation: how the bounded-query optimizer behaves in
// aggregate — candidates enumerated, how far predictions land from realized
// error, and how often bounds are missed or rejected outright.
var (
	obsPlannerCandidates = obs.Default().Histogram("aqp_core_planner_candidates",
		"Candidate plans considered per bounded query.",
		[]float64{1, 2, 4, 6, 8, 12, 16, 24, 32, 48})
	obsPlannerGap = obs.Default().Histogram("aqp_core_planner_prediction_gap",
		"Absolute gap between predicted and achieved relative error per bounded query.",
		[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1})
	obsPlannerBoundMiss = obs.Default().Counter("aqp_core_planner_bound_miss_total",
		"Bounded queries whose achieved error estimate exceeded the requested error bound.")
	obsPlannerUnsat = obs.Default().Counter("aqp_core_planner_unsatisfiable_total",
		"Bounded queries rejected because no candidate plan satisfied the bounds.")
)

// Pre-processing instrumentation: where the last SmallGroup.Preprocess run
// spent its time — "count" (scan 1 and band derivation), "classify" (scan
// 2: the sharded mask pass, then the generator-owning replay) and
// "materialise" (masks and sample tables).
var obsPreprocessSeconds = obs.Default().GaugeVec("aqp_core_preprocess_seconds",
	"Duration of the last small group pre-processing run, by phase.", "phase")

// observePhase records the time since start under phase and returns now, the
// start of the next phase.
func observePhase(phase string, start time.Time) time.Time {
	now := time.Now()
	obsPreprocessSeconds.With(phase).Set(now.Sub(start).Seconds())
	return now
}
