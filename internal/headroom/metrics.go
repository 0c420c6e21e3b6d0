package headroom

import "repro/internal/obs"

// M holds the package's metric hooks, nil until Instrument is called;
// obs metric methods are no-ops on nil receivers, so an uninstrumented
// cache records nothing and allocates nothing.
var M Metrics

// Metrics are the admission-cache signals: check outcomes and cost,
// rebuilds, and verification results.
type Metrics struct {
	// Checks counts admission checks; Admitted/Rejected split their
	// outcomes.
	Checks   *obs.Counter
	Admitted *obs.Counter
	Rejected *obs.Counter
	// Rebuilds counts warm-ups and corpus-change rebuilds.
	Rebuilds *obs.Counter
	// Verifies/VerifySkipped/Divergence cover the audit-as-verifier
	// pass; Divergence counting up is an invariant failure.
	Verifies      *obs.Counter
	VerifySkipped *obs.Counter
	Divergence    *obs.Counter
	// CheckSeconds is the wall time of one Admit (check + apply).
	CheckSeconds *obs.Histogram
	// Groups is the cache's group count after the last (re)build.
	Groups *obs.Gauge
}

// Instrument registers the cache's metric families on reg and points
// the hooks at them.
func Instrument(reg *obs.Registry) {
	M = Metrics{
		Checks: reg.Counter("drm_headroom_checks_total",
			"Cached admission checks."),
		Admitted: reg.Counter("drm_headroom_admitted_total",
			"Admissions accepted by the headroom cache."),
		Rejected: reg.Counter("drm_headroom_rejected_total",
			"Admissions rejected by the headroom cache."),
		Rebuilds: reg.Counter("drm_headroom_rebuilds_total",
			"Cache warm-ups and corpus-change rebuilds."),
		Verifies: reg.Counter("drm_headroom_verify_total",
			"Completed cache-vs-log verification passes."),
		VerifySkipped: reg.Counter("drm_headroom_verify_skipped_total",
			"Verification passes skipped because reservations were in flight."),
		Divergence: reg.Counter("drm_headroom_divergence_total",
			"Verification passes that found the cache diverging from the log."),
		CheckSeconds: reg.Histogram("drm_headroom_check_seconds",
			"Wall time of one cached admission (check + reservation).", nil),
		Groups: reg.Gauge("drm_headroom_groups",
			"Overlap groups tracked by the headroom cache."),
	}
}
