package obs

import (
	"encoding/json"
	"io"
)

// AuditStats is the typed record of one offline validation run — the
// runtime counterpart of the paper's analytical quantities. The equation
// counts make eq. 3 observable: EquationsChecked is Σ_k (2^{N_k}−1),
// EquationsFull is 2^N−1 (a float because N may exceed 62), and
// GainRealized = EquationsFull / EquationsChecked is the gain the run
// actually achieved, which equals the theoretical G on a complete run.
//
// drmaudit/drmbench emit this document under -stats so runs can be
// compared across code revisions.
type AuditStats struct {
	// Licenses is N; LogRecords the number of issuance records replayed.
	Licenses   int `json:"licenses"`
	LogRecords int `json:"log_records"`
	// Groups is the number of disconnected overlap groups.
	Groups int `json:"groups"`

	// EquationsChecked counts equations actually evaluated this run.
	EquationsChecked int64 `json:"equations_checked"`
	// EquationsFull is 2^N−1, the undivided validator's workload.
	EquationsFull float64 `json:"equations_full"`
	// EquationsEliminated = EquationsFull − EquationsChecked: the work the
	// grouping removed.
	EquationsEliminated float64 `json:"equations_eliminated"`
	// GainTheoretical is eq. 3's G for the grouping.
	GainTheoretical float64 `json:"gain_theoretical"`
	// GainRealized is EquationsFull / EquationsChecked.
	GainRealized float64 `json:"gain_realized"`

	// ShardsUsed totals the intra-group mask shards across validated
	// groups (1 per group when serial).
	ShardsUsed int `json:"shards_used"`
	// Violations counts violated equations in the merged report.
	Violations int `json:"violations"`

	// Incomplete is true when the run was cut short by context
	// cancellation or deadline expiry; EquationsChecked then counts only
	// the masks actually scanned.
	Incomplete bool `json:"incomplete,omitempty"`

	// Phases records per-phase wall time in nanoseconds.
	Phases AuditPhases `json:"phases_ns"`
}

// AuditPhases decomposes an audit's wall time (nanoseconds) along the
// pipeline: log replay into the tree (build, the paper's C_T), overlap
// grouping, tree division (together D_T), flat-snapshot construction, and
// equation evaluation (V_T).
type AuditPhases struct {
	Build    int64 `json:"build"`
	Overlap  int64 `json:"overlap"`
	Divide   int64 `json:"divide"`
	Flatten  int64 `json:"flatten"`
	Validate int64 `json:"validate"`
}

// WriteJSON writes the stats as an indented JSON document.
func (s AuditStats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
