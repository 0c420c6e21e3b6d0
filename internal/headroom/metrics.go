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
	// Rebuilds counts builds from the log: warm-ups and Verify's shadow.
	// Corpus growth does not rebuild.
	Rebuilds *obs.Counter
	// Verifies/Divergence cover the audit-as-verifier pass; Divergence
	// counting up is an invariant failure.
	Verifies   *obs.Counter
	Divergence *obs.Counter
	// CheckSeconds is the wall time of one Admit (check + apply).
	CheckSeconds *obs.Histogram
	// Groups is the cache's group count after the last build or growth.
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
			"Cache builds from the issuance log (warm-ups and verification shadows)."),
		Verifies: reg.Counter("drm_headroom_verify_total",
			"Completed cache-vs-log verification passes."),
		Divergence: reg.Counter("drm_headroom_divergence_total",
			"Verification passes that found the cache diverging from the log."),
		CheckSeconds: reg.Histogram("drm_headroom_check_seconds",
			"Wall time of one cached admission (check + apply).", nil),
		Groups: reg.Gauge("drm_headroom_groups",
			"Overlap groups tracked by the headroom cache."),
	}
}
