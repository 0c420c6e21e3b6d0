package engine

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/headroom"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vtree"
	"repro/internal/wal"
)

// M holds the package's metric hooks, nil until Instrument is called; obs
// metric methods are no-ops on nil receivers, so uninstrumented engines
// record nothing and allocate nothing.
var M Metrics

// Metrics are the distribution-chain signals: issuance outcomes and
// latency, and distributor-level audit cost.
type Metrics struct {
	// Issued counts accepted issuances; IssuedCounts sums their counts.
	Issued       *obs.Counter
	IssuedCounts *obs.Counter
	// RejectedInstance / RejectedAggregate count the two rejection
	// classes (fig 2's L_U^2 shape vs online headroom exhaustion).
	RejectedInstance  *obs.Counter
	RejectedAggregate *obs.Counter
	// IssueSeconds is the wall time of one Distributor.Issue, including
	// instance validation and (online mode) the headroom check.
	IssueSeconds *obs.Histogram
	// Audits / AuditSeconds cover Distributor.Audit end to end (build,
	// divide, validate).
	Audits       *obs.Counter
	AuditSeconds *obs.Histogram
	// Lifecycle signals: accepted revokes/expires/transfers and the
	// permission counts they moved, cap-rejected transfers, expiry
	// sweeps, and lifecycle-operation latency.
	Revoked           *obs.Counter
	RevokedCounts     *obs.Counter
	Expired           *obs.Counter
	ExpiredCounts     *obs.Counter
	Transferred       *obs.Counter
	TransferredCounts *obs.Counter
	TransferRejected  *obs.Counter
	Sweeps            *obs.Counter
	LifecycleSeconds  *obs.Histogram
}

// Instrument registers the engine's metric families on reg and points the
// hooks at them.
func Instrument(reg *obs.Registry) {
	M = Metrics{
		Issued: reg.Counter("drm_issue_total",
			"Accepted issuances."),
		IssuedCounts: reg.Counter("drm_issue_counts_total",
			"Permission counts issued (sum over accepted issuances)."),
		RejectedInstance: reg.Counter("drm_issue_rejected_instance_total",
			"Issuances rejected by instance-based validation."),
		RejectedAggregate: reg.Counter("drm_issue_rejected_aggregate_total",
			"Issuances rejected by the online aggregate headroom check."),
		IssueSeconds: reg.Histogram("drm_issue_seconds",
			"Wall time of one issuance (instance + online aggregate check).", nil),
		Audits: reg.Counter("drm_distributor_audits_total",
			"Distributor-level offline audits."),
		AuditSeconds: reg.Histogram("drm_distributor_audit_seconds",
			"Wall time of one distributor audit (build + divide + validate).", nil),
		Revoked: reg.Counter("drm_lifecycle_revoke_total",
			"Accepted revocations."),
		RevokedCounts: reg.Counter("drm_lifecycle_revoke_counts_total",
			"Permission counts revoked (sum over accepted revocations)."),
		Expired: reg.Counter("drm_lifecycle_expire_total",
			"Expire records appended by sweeps."),
		ExpiredCounts: reg.Counter("drm_lifecycle_expire_counts_total",
			"Permission counts expired (sum over expire records)."),
		Transferred: reg.Counter("drm_lifecycle_transfer_total",
			"Accepted transfers."),
		TransferredCounts: reg.Counter("drm_lifecycle_transfer_counts_total",
			"Permission counts transferred (sum over accepted transfers)."),
		TransferRejected: reg.Counter("drm_lifecycle_transfer_rejected_total",
			"Transfers rejected by the cumulative transfer cap."),
		Sweeps: reg.Counter("drm_lifecycle_sweeps_total",
			"Expiry sweeps run (including sweeps that found nothing due)."),
		LifecycleSeconds: reg.Histogram("drm_lifecycle_seconds",
			"Wall time of one lifecycle operation (revoke or transfer).", nil),
	}
}

// InstrumentAll wires every instrumentable package below the engine —
// vtree, core, wal, trace, headroom, cluster, and the engine itself
// — to one registry. Callers (drmserver, drmaudit, drmbench) do this
// once at startup, before any concurrent use.
func InstrumentAll(reg *obs.Registry) {
	vtree.Instrument(reg)
	core.Instrument(reg)
	wal.Instrument(reg)
	trace.Instrument(reg)
	headroom.Instrument(reg)
	cluster.Instrument(reg)
	Instrument(reg)
}
