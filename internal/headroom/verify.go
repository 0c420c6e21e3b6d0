// Verification: the audit-as-verifier inversion. With admission served
// from the cache, batch audits stop being the gatekeeper and become the
// invariant checker — after a clean audit the engine calls Verify, which
// rebuilds the cache from the issuance log and checks every cached count
// and transfer total, and that the kept flow is feasible and maximum.
// Any mismatch means the incremental maintenance drifted from ground
// truth and surfaces as a KindHeadroomDivergence error plus
// drm_headroom_divergence_total.

package headroom

import (
	"context"
	"sort"

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
	// Skipped is true when in-flight reservations made the pass unsound
	// (records admitted but possibly not yet in the log); Pending holds
	// their count. Skipping is not an error: the next quiescent audit
	// verifies.
	Skipped bool  `json:"skipped"`
	Pending int64 `json:"pending"`
	// Groups and Entries count what was compared.
	Groups  int `json:"groups"`
	Entries int `json:"entries"`
}

// Verify rebuilds a shadow cache from the log and checks the live state
// against it: every observed set's count and transfer total, then the
// kept flow — feasible (no set sends more than its count; each license's
// load is what its sets send it, within its budget) and maximum (its
// value is the shadow's, so the deficits agree). The cache is locked
// exclusively for the duration, so a verified snapshot is consistent;
// admissions queue behind it. Divergence returns a typed error matching
// ErrDivergence.
func (c *Cache) Verify(ctx context.Context, log logstore.Store) (VerifyResult, error) {
	ctx, sp := trace.Start(ctx, "headroom.verify")
	res, err := c.verify(ctx, log)
	if sp != nil {
		sp.SetInt("entries", int64(res.Entries))
		if res.Skipped {
			sp.SetAttr("skipped", "pending")
		}
		sp.Fail(err)
		sp.End()
	}
	return res, err
}

func (c *Cache) verify(ctx context.Context, log logstore.Store) (VerifyResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pending.Load(); p > 0 {
		M.VerifySkipped.Inc()
		return VerifyResult{Skipped: true, Pending: p}, nil
	}
	shadow, err := build(ctx, c.grouping, c.aggs, log)
	if err != nil {
		return VerifyResult{}, err
	}
	res := VerifyResult{Groups: len(c.groups)}
	for k, g := range c.groups {
		g.mu.Lock()
		err := c.verifyGroup(k, g, shadow.groups[k], &res)
		g.mu.Unlock()
		if err != nil {
			M.Divergence.Inc()
			return res, err
		}
	}
	M.Verifies.Inc()
	return res, nil
}

// verifyGroup checks one live group against its shadow. Caller holds
// c.mu and g.mu; sg is freshly built and unshared.
func (c *Cache) verifyGroup(k int, g, sg *group, res *VerifyResult) error {
	diverge := func(format string, args ...any) error {
		return drmerr.New(drmerr.KindHeadroomDivergence, "headroom.verify",
			"headroom: group %d diverges from log: "+format, append([]any{k}, args...)...)
	}
	if len(g.sets) != len(sg.sets) {
		return diverge("%d cached observed sets, log has %d", len(g.sets), len(sg.sets))
	}
	for set, sn := range sg.sets {
		res.Entries++
		if got := g.count(set); got != sn.cnt {
			return diverge("set %v cached count %d, log says %d", set, got, sn.cnt)
		}
	}
	if len(g.xfer) != len(sg.xfer) {
		return diverge("%d cached transfer sets, log has %d", len(g.xfer), len(sg.xfer))
	}
	for set, n := range sg.xfer {
		res.Entries++
		if got := g.xfer[set]; got != n {
			return diverge("set %v cached transfer total %d, log says %d", set, got, n)
		}
	}
	// Feasible: every flow is non-negative, each set sends what its
	// flows sum to and at most its count, and each license passes on
	// exactly what its sets send it, within its budget.
	load := make([]int64, len(g.load))
	var value int64
	for set, n := range g.sets {
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
	for _, e := range g.members.Elems() {
		res.Entries++
		if load[e] != g.load[e] || load[e] > c.aggs[e] {
			return diverge("license %d load %d, its sets send %d against budget %d", e+1, g.load[e], load[e], c.aggs[e])
		}
	}
	// Maximum: the value matches the shadow's fresh maximum flow, so the
	// published deficit is the log's.
	if value != sg.flow || g.flow != value || g.total != sg.total || g.deficit.Load() != sg.deficit.Load() {
		return diverge("flow %d (kept as %d) of %d, deficit %d; log has flow %d of %d, deficit %d",
			value, g.flow, g.total, g.deficit.Load(), sg.flow, sg.total, sg.deficit.Load())
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
	// nodes of the group's flow network.
	ObservedSets int `json:"observed_sets"`
	// MinSlack is the group's tightest remaining slack (Unbounded when no
	// set is observed yet); Deficit = min(0, MinSlack) is what other
	// groups' admissions subtract.
	MinSlack  int64 `json:"min_slack"`
	Unbounded bool  `json:"unbounded,omitempty"`
	Deficit   int64 `json:"deficit"`
	// Rejections counts admissions this group refused over the cache's
	// lifetime.
	Rejections int64 `json:"rejections"`
}

// Summaries returns one summary per group, ordered by group index.
func (c *Cache) Summaries() []GroupSummary {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]GroupSummary, len(c.groups))
	for k, g := range c.groups {
		g.mu.Lock()
		ms := c.minSlack(g)
		out[k] = GroupSummary{
			Group:        k,
			Members:      g.members.String(),
			Size:         g.members.Len(),
			ObservedSets: len(g.sets),
			MinSlack:     ms,
			Unbounded:    ms == unbounded,
			Deficit:      g.deficit.Load(),
			Rejections:   g.rejections.Load(),
		}
		g.mu.Unlock()
	}
	return out
}

// minSlack returns the least slack of any non-empty equation in g — the
// least local room of a license some observed set holds, since licenses
// no set holds only add budget — or unbounded with no observed set.
// Caller holds g.mu.
func (c *Cache) minSlack(g *group) int64 {
	best := unbounded
	for _, e := range g.members.Elems() {
		if len(g.users[e]) > 0 {
			n, sent := c.reach(g, bitset.Mask(0).With(e))
			best = min(best, sent+g.deficit.Load())
			g.keep(n, sent, 0)
		}
	}
	return best
}

// SampleSets returns up to max observed belongs-to sets spread across
// groups, in ascending mask order — the sample audits re-derive headroom
// for when cross-checking the cache against their own trees.
func (c *Cache) SampleSets(max int) []bitset.Mask {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var all []bitset.Mask
	for _, g := range c.groups {
		g.mu.Lock()
		for set := range g.sets {
			all = append(all, set)
		}
		g.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
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
