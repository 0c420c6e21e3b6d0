// Verification: the audit-as-verifier inversion. With admission served
// from the cache, batch audits stop being the gatekeeper and become the
// invariant checker — under the same lock as its log replay, an audit
// calls Verify, which
// rebuilds the cache from the issuance log and checks every cached count
// and transfer total, and that the kept flow is feasible and maximum.
// Any mismatch means the incremental maintenance drifted from ground
// truth and surfaces as a KindHeadroomDivergence error plus
// drm_headroom_divergence_total.

package headroom

import (
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/trace"
)

// ErrDivergence matches any cache-vs-log divergence found by Verify.
var ErrDivergence = drmerr.Sentinel(drmerr.KindHeadroomDivergence,
	"headroom: cache diverges from issuance log")

// VerifyResult summarises one verification pass.
type VerifyResult struct {
	// Groups and Entries count what was compared.
	Groups  int `json:"groups"`
	Entries int `json:"entries"`
}

// Verify rebuilds a shadow cache from the log and checks the live state
// against it: every observed set's count and transfer total, then the
// kept flow — feasible (no set sends more than its count; each license's
// load is what its sets send it, within its budget) and maximum (its
// value is the shadow's, so the deficits agree). The caller must hold
// off appends for the duration, so the log it passes is the one the
// cache has folded. Divergence returns a typed error matching
// ErrDivergence.
func (c *Cache) Verify(ctx context.Context, log logstore.Store) (VerifyResult, error) {
	ctx, sp := trace.Start(ctx, "headroom.verify")
	res, err := c.verify(ctx, log)
	if sp != nil {
		sp.SetInt("entries", int64(res.Entries))
		sp.Fail(err)
		sp.End()
	}
	return res, err
}

func (c *Cache) verify(ctx context.Context, log logstore.Store) (VerifyResult, error) {
	shadow, err := build(ctx, c.grouping, c.aggs, log)
	if err != nil {
		return VerifyResult{}, err
	}
	res := VerifyResult{Groups: c.grouping.NumGroups()}
	if err := c.diff(shadow, &res); err != nil {
		M.Divergence.Inc()
		return res, err
	}
	M.Verifies.Inc()
	return res, nil
}

// diff checks the live cache against its freshly built, unshared shadow.
func (c *Cache) diff(shadow *Cache, res *VerifyResult) error {
	diverge := func(format string, args ...any) error {
		return drmerr.New(drmerr.KindHeadroomDivergence, "headroom.verify",
			"headroom: cache diverges from log: "+format, args...)
	}
	if len(c.sets) != len(shadow.sets) {
		return diverge("%d cached observed sets, log has %d", len(c.sets), len(shadow.sets))
	}
	for set, sn := range shadow.sets {
		res.Entries++
		if got := c.count(set); got != sn.cnt {
			return diverge("set %v cached count %d, log says %d", set, got, sn.cnt)
		}
	}
	if len(c.xfer) != len(shadow.xfer) {
		return diverge("%d cached transfer sets, log has %d", len(c.xfer), len(shadow.xfer))
	}
	for set, n := range shadow.xfer {
		res.Entries++
		if got := c.xfer[set]; got != n {
			return diverge("set %v cached transfer total %d, log says %d", set, got, n)
		}
	}
	// Feasible: every flow is non-negative, each set sends what its
	// flows sum to and at most its count, and each license passes on
	// exactly what its sets send it, within its budget.
	load := make([]int64, c.n)
	var value int64
	for set, n := range c.sets {
		var out int64
		for i, e := range set.Elems() {
			if n.flow[i] < 0 {
				return diverge("set %v sends %d to license %d", set, n.flow[i], e+1)
			}
			out += n.flow[i]
			load[e] += n.flow[i]
		}
		if out != n.out || out > n.cnt {
			return diverge("set %v sends %d (kept as %d) against count %d", set, out, n.out, n.cnt)
		}
		value += out
	}
	for e := range load {
		res.Entries++
		if load[e] != c.load[e] || load[e] > c.aggs[e] {
			return diverge("license %d load %d, its sets send %d against budget %d", e+1, c.load[e], load[e], c.aggs[e])
		}
	}
	// Maximum: the value matches the shadow's fresh maximum flow, so the
	// deficit is the log's.
	if value != shadow.flow || c.flow != value || c.total != shadow.total {
		return diverge("flow %d (kept as %d) of %d; log has flow %d of %d",
			value, c.flow, c.total, shadow.flow, shadow.total)
	}
	return nil
}

// GroupSummary is the per-group view the drmserver debug endpoint and
// operators consume.
type GroupSummary struct {
	// Group is the overlap-component index; Members renders it in the
	// paper's one-based {…} notation; Size is N_k.
	Group   int    `json:"group"`
	Members string `json:"members"`
	Size    int    `json:"size"`
	// ObservedSets counts the sets with a positive net count — the
	// group's nodes of the flow network.
	ObservedSets int `json:"observed_sets"`
	// MinSlack is the group's tightest remaining slack (Unbounded when no
	// set is observed yet); Deficit = min(0, MinSlack), Σ(out − count)
	// over the group's nodes, is what other groups' admissions subtract.
	MinSlack  int64 `json:"min_slack"`
	Unbounded bool  `json:"unbounded,omitempty"`
	Deficit   int64 `json:"deficit"`
	// Rejections counts admissions refused for the group's sets over the
	// cache's lifetime.
	Rejections int64 `json:"rejections"`
}

// Summaries returns one summary per group, ordered by group index. A
// group's least slack is the least local room of a license some
// observed set holds — licenses no set holds only add budget — found by
// one push per such license, each withdrawn again.
func (c *Cache) Summaries() []GroupSummary {
	out := make([]GroupSummary, c.grouping.NumGroups())
	row := make([]*GroupSummary, c.n)
	for k, g := range c.grouping.Groups {
		out[k] = GroupSummary{Group: k, Members: g.Members.String(), Size: g.Size, MinSlack: unbounded}
		g.Members.ForEach(func(e int) bool {
			row[e] = &out[k]
			out[k].Rejections += c.rejections[e]
			return true
		})
	}
	for _, n := range c.sets {
		s := row[n.set.Min()]
		s.ObservedSets++
		s.Deficit += n.out - n.cnt
	}
	for e, s := range row {
		if len(c.users[e]) > 0 {
			n, sent, _ := c.reach(bitset.Mask(0).With(e))
			s.MinSlack = min(s.MinSlack, sent+s.Deficit)
			c.keep(n, sent, 0)
		}
	}
	for k := range out {
		out[k].Unbounded = out[k].MinSlack == unbounded
	}
	return out
}

// SampleSets returns up to max observed belongs-to sets, in ascending
// mask order — the sample audits re-derive headroom for when
// cross-checking the cache against their own trees.
func (c *Cache) SampleSets(max int) []bitset.Mask {
	all := make([]bitset.Mask, 0, len(c.sets))
	for set := range c.sets {
		all = append(all, set)
	}
	slices.Sort(all)
	if max <= 0 || len(all) <= max {
		return all
	}
	// Stride-sample so the picks spread over the whole set range.
	out := make([]bitset.Mask, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, all[i*len(all)/max])
	}
	return out
}
