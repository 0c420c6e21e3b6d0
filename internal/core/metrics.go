package core

import (
	"repro/internal/obs"
	"repro/internal/vtree"
)

// M holds the package's metric hooks, nil until Instrument is called —
// obs metric methods are no-ops on nil receivers, so the uninstrumented
// validator records nothing and allocates nothing. Recording happens once
// per grouped run or audit, never per equation. Instrument must run
// before concurrent use (server startup).
var M Metrics

// Metrics are the audit-layer signals: grouped-run throughput, per-phase
// cost decomposition (the runtime form of the paper's C_T/D_T/V_T), and
// the realized gain G.
type Metrics struct {
	// GroupedRuns / GroupedSeconds cover Validate/ValidateParallel.
	GroupedRuns    *obs.Counter
	GroupedSeconds *obs.Histogram
	// AuditRuns counts Auditor audits.
	AuditRuns *obs.Counter
	// AuditsIncomplete counts audits cut short by context cancellation
	// or deadline expiry (they still count in AuditRuns).
	AuditsIncomplete *obs.Counter
	// Gain is the realized gain G of the last audit.
	Gain *obs.FloatGauge
	// Phase histograms decompose audit wall time (one series per phase of
	// drm_audit_phase_seconds).
	PhaseBuild    *obs.Histogram
	PhaseOverlap  *obs.Histogram
	PhaseDivide   *obs.Histogram
	PhaseFlatten  *obs.Histogram
	PhaseValidate *obs.Histogram
}

// Instrument registers the package's metric families on reg and points
// the hooks at them.
func Instrument(reg *obs.Registry) {
	phases := reg.HistogramVec("drm_audit_phase_seconds",
		"Audit wall time decomposed by pipeline phase.", nil, "phase")
	M = Metrics{
		GroupedRuns: reg.Counter("drm_grouped_validate_runs_total",
			"Grouped validation runs (Validate/ValidateParallel)."),
		GroupedSeconds: reg.Histogram("drm_grouped_validate_seconds",
			"Wall time of one grouped validation run.", nil),
		AuditRuns: reg.Counter("drm_audit_runs_total",
			"Offline audits."),
		AuditsIncomplete: reg.Counter("drm_audit_incomplete_total",
			"Audits cut short by context cancellation or deadline expiry."),
		Gain: reg.FloatGauge("drm_audit_gain",
			"Realized gain G of the last audit (eq 3 denominator measured)."),
		PhaseBuild:    phases.With("build"),
		PhaseOverlap:  phases.With("overlap"),
		PhaseDivide:   phases.With("divide"),
		PhaseFlatten:  phases.With("flatten"),
		PhaseValidate: phases.With("validate"),
	}
}

// shardsUsed returns the total number of intra-group mask shards a
// ValidateParallel call over trees fans out to: the per-group worker
// budgets rounded up to vtree's power-of-two shard counts. It mirrors the
// run deterministically so stats never have to thread counts out of the
// worker goroutines.
func shardsUsed(trees []*GroupTree, workers int) int {
	budgets := shardBudgets(trees, workers)
	total := 0
	for k, gt := range trees {
		total += vtree.ShardCount(gt.Tree.N(), budgets[k])
	}
	return total
}
