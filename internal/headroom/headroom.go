// Package headroom maintains the per-group admission cache that turns
// online issuance from a full validation-tree walk into a bounded slack
// lookup.
//
// Background. An issuance with belongs-to set B is aggregate-valid iff
// its count fits under min over S ⊇ B of slack(S) = A[S] − C⟨S⟩
// (vtree.Headroom). Evaluated naively that is 2^(N−|B|) equations, each a
// tree walk — fine for batch audits, fatal on a serving hot path. Two
// observations make the cache cheap:
//
//  1. Group decomposition (Corollary 1.1). Instance-valid belongs-to
//     sets never span overlap groups, so C⟨S⟩ splits additively across
//     groups and the global minimum decomposes into
//
//     Headroom(B) = localMin_k0(B) + Σ_{k≠k0} min(0, minSlack_k)
//
//     where k0 is B's group, localMin_k0(B) ranges over supersets of B
//     inside the group, and minSlack_k is the smallest slack of any
//     non-empty equation in group k. The deficit term is zero unless a
//     recovered log already violates another group, preserving exact
//     equivalence with the full-universe walk even then.
//
//  2. Observed-set pruning. A license that appears in no logged
//     belongs-to set can only raise A[S] when added to S, never C⟨S⟩.
//     The minimum is therefore attained inside B ∪ span, where span is
//     the union of the group's observed sets — the "walk the observed
//     set lattice" frontier. Each group keeps a dense slack table over
//     span coordinates (slack of every S ⊆ span), so an admission check
//     reads 2^(|span|−|B∩span|) array entries and an accepted append
//     decrements the same entries: no tree, no replay.
//
// Groups whose span outgrows MaxSpanBits fall back to an exact sparse
// mode that enumerates the union-closure of observed sets reachable from
// B — still exponentially cheaper than the full-universe walk, and
// metered separately (drm_headroom_slow_checks_total) so operators can
// see when a corpus has outgrown the dense table.
//
// Concurrency. Admission is Admit (check + reserve under the group
// lock), then the caller appends to its log and calls Confirm, or
// Release to roll back a failed append. The pending counter lets Verify
// (see verify.go) distinguish a quiescent cache from one with reserved
// but not-yet-logged records.
package headroom

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// DefaultMaxSpanBits bounds the dense per-group slack table: a group
// whose observed-set span exceeds this many licenses switches to the
// sparse closure walk. 20 bits caps a table at 2^20 entries (8 MiB).
const DefaultMaxSpanBits = 20

// unbounded is the minSlack of a group with no active equations.
const unbounded = int64(math.MaxInt64)

// Cache is the admission cache for one corpus. All methods are safe for
// concurrent use.
type Cache struct {
	// mu guards topology: grouping, aggs, and the groups slice. Admission
	// takes it shared; TopUp, Rebuild, and Verify take it exclusively.
	mu          sync.RWMutex
	maxSpanBits int
	n           int
	grouping    overlap.Grouping
	aggs        []int64
	groupOf     []int
	groups      []*group
	// pending counts admitted-but-unconfirmed reservations (records the
	// cache has applied that the issuance log may not hold yet).
	pending atomic.Int64
}

// group is one overlap component's slack state. minSlack is atomic so
// admissions in other groups read this group's deficit without taking
// its lock; everything else is guarded by mu.
type group struct {
	mu      sync.Mutex
	members bitset.Mask
	// cnt sums net counts (issues minus revokes and expiries) per
	// observed belongs-to set (global masks) — the compacted ledger
	// restricted to this group. It is the ground truth the dense table
	// is derived from, and what Rebuild reuses so corpus changes never
	// replay the log. Entries are always positive: a set whose net count
	// returns to zero is pruned, so the span matches what a fresh build
	// from the log derives.
	cnt map[bitset.Mask]int64
	// xfer sums cumulative transferred counts per set — lifecycle
	// bookkeeping the engine's transfer-cap policy reads. Transfers do
	// not move slack.
	xfer map[bitset.Mask]int64
	span bitset.Mask
	// spanElems maps span-coordinate bit → global license index, in
	// span-arrival order (so growing the span never remaps old bits);
	// coord is the inverse, -1 outside the span.
	spanElems []int
	coord     [bitset.MaxMaskElems]int8
	dense     bool
	// table[T] = A_span[T] − C⟨T⟩ for every span-coordinate mask T
	// (dense mode only); table[0] == 0.
	table []int64
	// minSlack is the smallest slack of any non-empty equation in the
	// group (exact in dense mode; in sparse mode exact whenever ≤ 0,
	// which is all the deficit term needs). unbounded when no equation
	// is active.
	minSlack atomic.Int64
	// rejections counts admissions this group turned away (count >
	// room) over the cache's lifetime — the per-group signal behind the
	// heavy-hitter rejection ranking and the /v1/headroom summaries.
	rejections atomic.Int64
}

// Build replays the issuance log into a fresh cache for the given
// grouping and aggregate array — the warm-up path, used both at first
// online issuance and when recovery reopens a corpus over a WAL
// (ForEach replays snapshot + tail). A record whose set spans groups
// cannot arise from instance-valid issuance and fails the build with a
// KindCrossGroup error.
func Build(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store) (*Cache, error) {
	return BuildMaxSpan(ctx, grouping, aggs, log, DefaultMaxSpanBits)
}

// BuildMaxSpan is Build with an explicit dense-table bound, exposed so
// tests (and memory-constrained callers) can force the sparse path.
func BuildMaxSpan(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store, maxSpanBits int) (*Cache, error) {
	ctx, sp := trace.Start(ctx, "headroom.build")
	c, err := buildMaxSpan(ctx, grouping, aggs, log, maxSpanBits)
	if sp != nil {
		sp.SetInt("groups", int64(grouping.NumGroups()))
		sp.Fail(err)
		sp.End()
	}
	return c, err
}

func buildMaxSpan(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store, maxSpanBits int) (*Cache, error) {
	c, err := newCache(grouping, aggs, maxSpanBits)
	if err != nil {
		return nil, err
	}
	records := 0
	err = logstore.ForEachContext(ctx, log, func(r logstore.Record) error {
		g, err := c.route(r.Set)
		if err != nil {
			return err
		}
		if eff := r.Effective(); eff != 0 {
			g.cnt[r.Set] += eff
		}
		if r.Kind == logstore.KindTransfer {
			g.xfer[r.Set] += r.Count
		}
		records++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, g := range c.groups {
		// Sets whose net count returned to zero contribute to no
		// equation; prune them so the span (and hence the dense table
		// shape) is determined by the live counts alone.
		for set, n := range g.cnt {
			if n == 0 {
				delete(g.cnt, set)
			}
		}
		c.finalizeGroup(g)
	}
	M.Rebuilds.Inc()
	c.setShapeGauges()
	_ = records
	return c, nil
}

// newCache allocates the skeleton: groups, routing table, aggregate copy.
func newCache(grouping overlap.Grouping, aggs []int64, maxSpanBits int) (*Cache, error) {
	if err := grouping.Validate(); err != nil {
		return nil, drmerr.Wrap(drmerr.KindCorpusMismatch, "headroom.build", err)
	}
	if len(aggs) != grouping.N {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "headroom.build",
			"headroom: %d aggregates for %d licenses", len(aggs), grouping.N)
	}
	if maxSpanBits < 1 {
		maxSpanBits = 1
	}
	if maxSpanBits > bitset.MaxMaskElems {
		maxSpanBits = bitset.MaxMaskElems
	}
	c := &Cache{
		maxSpanBits: maxSpanBits,
		n:           grouping.N,
		grouping:    grouping,
		aggs:        append([]int64(nil), aggs...),
		groupOf:     make([]int, grouping.N),
		groups:      make([]*group, len(grouping.Groups)),
	}
	for k, gr := range grouping.Groups {
		g := &group{members: gr.Members, cnt: make(map[bitset.Mask]int64), xfer: make(map[bitset.Mask]int64)}
		g.minSlack.Store(unbounded)
		for i := range g.coord {
			g.coord[i] = -1
		}
		c.groups[k] = g
		gr.Members.ForEach(func(e int) bool {
			c.groupOf[e] = k
			return true
		})
	}
	return c, nil
}

// Rebuild re-derives every group's state for a changed corpus (new
// licenses, merged groups, changed aggregates) from the counts the cache
// already holds — no log replay. Observed sets are re-routed under the
// new grouping, so group merges and splits-by-growth are handled
// uniformly.
func (c *Cache) Rebuild(ctx context.Context, grouping overlap.Grouping, aggs []int64) error {
	_, sp := trace.Start(ctx, "headroom.rebuild")
	err := c.rebuild(grouping, aggs)
	if sp != nil {
		sp.SetInt("groups", int64(grouping.NumGroups()))
		sp.Fail(err)
		sp.End()
	}
	return err
}

func (c *Cache) rebuild(grouping overlap.Grouping, aggs []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fresh, err := newCache(grouping, aggs, c.maxSpanBits)
	if err != nil {
		return err
	}
	for _, old := range c.groups {
		old.mu.Lock()
		for set, n := range old.cnt {
			if n == 0 {
				continue
			}
			g, err := fresh.route(set)
			if err != nil {
				old.mu.Unlock()
				return err
			}
			g.cnt[set] += n
		}
		for set, n := range old.xfer {
			g, err := fresh.route(set)
			if err != nil {
				old.mu.Unlock()
				return err
			}
			g.xfer[set] += n
		}
		old.mu.Unlock()
	}
	for _, g := range fresh.groups {
		fresh.finalizeGroup(g)
	}
	c.n = fresh.n
	c.grouping = fresh.grouping
	c.aggs = fresh.aggs
	c.groupOf = fresh.groupOf
	c.groups = fresh.groups
	M.Rebuilds.Inc()
	c.setShapeGauges()
	return nil
}

// route returns the group owning set, or a typed error if the set is
// outside the universe or spans groups. Callers hold at least c.mu.RLock.
func (c *Cache) route(set bitset.Mask) (*group, error) {
	if set.Empty() {
		return nil, drmerr.New(drmerr.KindInvalidInput, "headroom.route", "headroom: empty belongs-to set")
	}
	if !set.SubsetOf(bitset.FullMask(c.n)) {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "headroom.route",
			"headroom: set %v outside universe of %d licenses", set, c.n)
	}
	g := c.groups[c.groupOf[set.Min()]]
	if !set.SubsetOf(g.members) {
		return nil, drmerr.New(drmerr.KindCrossGroup, "headroom.route",
			"headroom: set %v spans overlap groups", set)
	}
	return g, nil
}

// aggSum is A[m]: the summed budgets of the licenses in m.
func (c *Cache) aggSum(m bitset.Mask) int64 {
	var total int64
	m.ForEach(func(e int) bool {
		total += c.aggs[e]
		return true
	})
	return total
}

// spanCoord compresses m ∩ span into span-coordinate bits.
func (g *group) spanCoord(m bitset.Mask) bitset.Mask {
	var out bitset.Mask
	m.Intersect(g.span).ForEach(func(e int) bool {
		out |= 1 << uint(g.coord[e])
		return true
	})
	return out
}

// expand is the inverse of spanCoord: span-coordinate mask → global mask.
func (g *group) expand(t bitset.Mask) bitset.Mask {
	var out bitset.Mask
	t.ForEach(func(b int) bool {
		out = out.With(g.spanElems[b])
		return true
	})
	return out
}

// finalizeGroup derives span, mode, table, and minSlack from g.cnt.
func (c *Cache) finalizeGroup(g *group) {
	for i := range g.coord {
		g.coord[i] = -1
	}
	g.span = 0
	for set := range g.cnt {
		g.span = g.span.Union(set)
	}
	g.spanElems = g.span.Elems()
	for p, e := range g.spanElems {
		g.coord[e] = int8(p)
	}
	g.dense = len(g.spanElems) <= c.maxSpanBits
	if g.dense {
		c.rebuildTable(g)
	} else {
		g.table = nil
		c.recomputeSparseMinSlack(g)
	}
}

// rebuildTable recomputes the dense slack table with one subset-sum
// (zeta) transform: O(2^|span| · |span|) regardless of how many records
// produced the counts.
func (c *Cache) rebuildTable(g *group) {
	size := 1 << uint(len(g.spanElems))
	// sub[T] accumulates C⟨T⟩: seed with the exact counts, then one zeta
	// pass turns point counts into subset-closed sums.
	sub := make([]int64, size)
	for set, n := range g.cnt {
		sub[g.spanCoord(set)] += n
	}
	for b := 0; b < len(g.spanElems); b++ {
		bit := 1 << uint(b)
		for t := 0; t < size; t++ {
			if t&bit != 0 {
				sub[t] += sub[t^bit]
			}
		}
	}
	// table[T] = A_span[T] − C⟨T⟩; A_span via the lowest-bit recurrence.
	table := make([]int64, size)
	min := unbounded
	for t := 1; t < size; t++ {
		low := t & -t
		table[t] = table[t^low] + c.aggs[g.spanElems[bits.TrailingZeros64(uint64(low))]]
	}
	for t := 1; t < size; t++ {
		table[t] -= sub[t]
		if table[t] < min {
			min = table[t]
		}
	}
	g.table = table
	g.minSlack.Store(min)
}

// slackSlow computes slack(S) = A[S] − C⟨S⟩ by scanning the observed
// counts — the sparse-mode equation evaluator.
func (c *Cache) slackSlow(g *group, s bitset.Mask) int64 {
	total := c.aggSum(s)
	for set, n := range g.cnt {
		if set.SubsetOf(s) {
			total -= n
		}
	}
	return total
}

// closureMin returns min slack(S) over the union-closure of observed
// sets reachable from start — exactly min over S ⊇ start of slack(S)
// when start is non-empty, since licenses outside every observed set
// only raise A[S]. With start == 0 it ranges over the non-empty unions
// of observed sets, which is where every negative slack lives. Each
// visited node counts one equation toward the metrics.
func (c *Cache) closureMin(g *group, start bitset.Mask) int64 {
	best := unbounded
	if !start.Empty() {
		best = c.slackSlow(g, start)
	}
	visited := map[bitset.Mask]bool{start: true}
	queue := []bitset.Mask{start}
	eqs := int64(1)
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for set := range g.cnt {
			u := s.Union(set)
			if visited[u] {
				continue
			}
			visited[u] = true
			queue = append(queue, u)
			eqs++
			if slack := c.slackSlow(g, u); slack < best {
				best = slack
			}
		}
	}
	M.Equations.Add(eqs)
	return best
}

// recomputeSparseMinSlack refreshes minSlack for a sparse-mode group.
// The result is exact whenever it is ≤ 0 (see the minSlack field doc).
func (c *Cache) recomputeSparseMinSlack(g *group) {
	g.minSlack.Store(c.closureMin(g, 0))
}

// deficitExcept sums min(0, minSlack_k) over every group but skip — the
// cross-group correction that keeps cached headroom exactly equal to the
// full-universe walk when a recovered log already violates other groups.
func (c *Cache) deficitExcept(skip *group) int64 {
	var total int64
	for _, g := range c.groups {
		if g == skip {
			continue
		}
		if ms := g.minSlack.Load(); ms < 0 {
			total += ms
		}
	}
	return total
}

// localMinLocked returns min over S ⊇ set within the group of slack(S).
// Caller holds g.mu.
func (c *Cache) localMinLocked(g *group, set bitset.Mask) int64 {
	if !g.dense {
		M.SlowChecks.Inc()
		return c.closureMin(g, set)
	}
	// Licenses in set but outside the span contribute a fixed A offset;
	// the rest is a superset scan of the dense table.
	offset := c.aggSum(set.Diff(g.span))
	bs := g.spanCoord(set)
	best := g.table[bs]
	rem := bitset.Mask(len(g.table)-1) ^ bs
	rem.Subsets(func(extra bitset.Mask) bool {
		if v := g.table[bs|extra]; v < best {
			best = v
		}
		return true
	})
	M.Equations.Add(int64(1) << uint(rem.Len()))
	return offset + best
}

// Headroom returns the largest count issuable against set without
// violating any validation equation — the cached equivalent of
// vtree.Headroom over the full corpus. It does not reserve anything.
func (c *Cache) Headroom(set bitset.Mask) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	local := c.localMinLocked(g, set)
	g.mu.Unlock()
	return saturatingAdd(local, c.deficitExcept(g)), nil
}

// saturatingAdd guards the unbounded sentinel against deficit overflow.
func saturatingAdd(a, b int64) int64 {
	if a == unbounded || b == unbounded {
		return unbounded
	}
	s := a + b
	if b < 0 && s > a { // underflow wrapped
		return math.MinInt64
	}
	return s
}

// Admit atomically checks and reserves one issuance: if count fits under
// the cached headroom for set, the group's slack entries are decremented
// in place and ok is true; otherwise nothing changes and the rejecting
// headroom is returned. After a successful Admit the caller must append
// the record to its log and call Confirm, or Release to undo a failed
// append. The check and the decrement run under one group lock, so
// concurrent admissions can never jointly overshoot a budget.
func (c *Cache) Admit(ctx context.Context, set bitset.Mask, count int64) (room int64, ok bool, err error) {
	start := time.Now()
	defer M.CheckSeconds.ObserveSince(start)
	M.Checks.Inc()
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, false, err
	}
	if count <= 0 {
		return 0, false, drmerr.New(drmerr.KindInvalidInput, "headroom.admit",
			"headroom: non-positive count %d", count)
	}
	g.mu.Lock()
	_, csp := trace.Start(ctx, "headroom.check")
	room = saturatingAdd(c.localMinLocked(g, set), c.deficitExcept(g))
	if csp != nil {
		csp.SetInt("headroom", room)
		csp.End()
	}
	if count > room {
		g.rejections.Add(1)
		g.mu.Unlock()
		M.Rejected.Inc()
		return room, false, nil
	}
	_, asp := trace.Start(ctx, "headroom.apply")
	c.applyLocked(g, set, count)
	if asp != nil {
		asp.SetInt("count", count)
		asp.End()
	}
	g.mu.Unlock()
	c.pending.Add(1)
	M.Admitted.Inc()
	return room, true, nil
}

// Confirm marks the most recent Admit as durably logged.
func (c *Cache) Confirm() { c.pending.Add(-1) }

// Pending returns the number of admitted-but-unconfirmed reservations.
func (c *Cache) Pending() int64 { return c.pending.Load() }

// applyLocked decrements slack for every equation S ⊇ set. Caller holds
// g.mu; set has already been validated by route.
func (c *Cache) applyLocked(g *group, set bitset.Mask, count int64) {
	g.cnt[set] += count
	if g.dense {
		c.growSpanLocked(g, set)
	}
	if !g.dense {
		g.span = g.span.Union(set)
		// Exact maintenance: the decremented equations are exactly the
		// supersets of set, whose new minimum the closure walk computes.
		if m := c.closureMin(g, set); m < g.minSlack.Load() {
			g.minSlack.Store(m)
		}
		return
	}
	bs := g.spanCoord(set)
	rem := bitset.Mask(len(g.table)-1) ^ bs
	written := g.table[bs] - count
	g.table[bs] = written
	min := written
	rem.Subsets(func(extra bitset.Mask) bool {
		t := bs | extra
		g.table[t] -= count
		if g.table[t] < min {
			min = g.table[t]
		}
		return true
	})
	M.Equations.Add(int64(1) << uint(rem.Len()))
	if min < g.minSlack.Load() {
		g.minSlack.Store(min)
	}
}

// growSpanLocked extends the dense span with set's unobserved licenses.
// Each new element doubles the table — newTable[T|bit] = table[T] +
// A[e], valid because no existing count contains e — until MaxSpanBits
// forces the sparse fallback. No replay, ever.
func (c *Cache) growSpanLocked(g *group, set bitset.Mask) {
	grow := set.Diff(g.span)
	if grow.Empty() {
		return
	}
	ok := true
	grow.ForEach(func(e int) bool {
		if len(g.spanElems) >= c.maxSpanBits {
			ok = false
			return false
		}
		bit := len(g.spanElems)
		old := g.table
		nt := make([]int64, 2*len(old))
		copy(nt, old)
		a := c.aggs[e]
		min := g.minSlack.Load()
		for t, v := range old {
			nv := v + a
			nt[len(old)+t] = nv
			if nv < min {
				min = nv
			}
		}
		g.table = nt
		g.minSlack.Store(min)
		g.spanElems = append(g.spanElems, e)
		g.coord[e] = int8(bit)
		g.span = g.span.With(e)
		M.SpanGrowths.Inc()
		return true
	})
	if !ok {
		// Span outgrew the dense budget: drop the table, keep the counts.
		// minSlack stays valid (it was exact; sparse mode only needs
		// exactness at ≤ 0).
		g.dense = false
		g.table = nil
		g.span = g.span.Union(set)
		set.Diff(bitset.MaskOf(g.spanElems...)).ForEach(func(e int) bool {
			g.coord[e] = int8(len(g.spanElems))
			g.spanElems = append(g.spanElems, e)
			return true
		})
		M.SpanOverflows.Inc()
	}
}

// Release rolls back an admitted-but-unlogged reservation (the log
// append failed): slack is restored and the reservation retired.
func (c *Cache) Release(set bitset.Mask, count int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer func() {
		g.mu.Unlock()
		c.pending.Add(-1)
	}()
	g.cnt[set] -= count
	if g.cnt[set] <= 0 {
		delete(g.cnt, set)
	}
	// Re-derive span, mode, table, and minimum from the surviving counts:
	// the rolled-back record may have been the only one observing some
	// license, and the span must shrink with it so the state matches what
	// a verification rebuild derives from the log. Release only runs when
	// a log append failed, so the full refinalize is off the hot path.
	c.finalizeGroup(g)
	return nil
}

// Hold registers an in-flight lifecycle mutation (a revoke, expiry, or
// transfer between its log append and the matching cache update) so
// Verify treats the cache as non-quiescent. Every Hold must be paired
// with a Confirm.
func (c *Cache) Hold() { c.pending.Add(1) }

// Credit applies a durably-logged debit record (revoke or expire) to
// the cache: the set's net count drops by count and slack for every
// equation S ⊇ set rises by count, mirroring the admission decrement
// path in place. Callers bracket the log append and the Credit with
// Hold/Confirm so Verify never observes the halfway state. A count
// exceeding the cached net count means the cache has diverged from the
// log (the store would have refused the append) and is reported as
// KindHeadroomDivergence.
func (c *Cache) Credit(ctx context.Context, set bitset.Mask, count int64) error {
	_, sp := trace.Start(ctx, "headroom.credit")
	err := c.credit(set, count)
	if sp != nil {
		sp.SetInt("count", count)
		sp.Fail(err)
		sp.End()
	}
	return err
}

func (c *Cache) credit(set bitset.Mask, count int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return err
	}
	if count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.credit",
			"headroom: non-positive credit %d", count)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.cnt[set]
	if count > cur {
		return drmerr.New(drmerr.KindHeadroomDivergence, "headroom.credit",
			"headroom: credit of %d against cached net count %d for set %v", count, cur, set)
	}
	if count == cur {
		// The set's net count returns to zero: prune it and re-derive
		// span, mode, table, and minimum, exactly like a rolled-back
		// reservation — a fresh build from the log would not observe the
		// set either. Debits are off the admission hot path, so the full
		// refinalize is acceptable here.
		delete(g.cnt, set)
		c.finalizeGroup(g)
		return nil
	}
	g.cnt[set] = cur - count
	if !g.dense {
		// Slacks only rose; the sparse minimum must be re-derived to stay
		// exact at ≤ 0.
		c.recomputeSparseMinSlack(g)
		return nil
	}
	bs := g.spanCoord(set)
	rem := bitset.Mask(len(g.table)-1) ^ bs
	g.table[bs] += count
	rem.Subsets(func(extra bitset.Mask) bool {
		g.table[bs|extra] += count
		return true
	})
	M.Equations.Add(int64(1) << uint(rem.Len()))
	// Increments can raise the minimum anywhere in the table, not just
	// among the touched entries; rescan for the exact value.
	min := unbounded
	for t := 1; t < len(g.table); t++ {
		if g.table[t] < min {
			min = g.table[t]
		}
	}
	g.minSlack.Store(min)
	return nil
}

// ApplyTransfer records a durably-logged transfer against the cache's
// per-set transfer totals. Slack is untouched — transfers move
// permissions between consumers, not against the corpus.
func (c *Cache) ApplyTransfer(set bitset.Mask, count int64) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return err
	}
	if count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.transfer",
			"headroom: non-positive transfer %d", count)
	}
	g.mu.Lock()
	g.xfer[set] += count
	g.mu.Unlock()
	return nil
}

// Transferred returns the cumulative transferred total for set (0 if
// the set routes but has no transfers) — the number the engine's
// transfer-cap policy compares against.
func (c *Cache) Transferred(set bitset.Mask) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.xfer[set], nil
}

// NetCount returns the cached net outstanding count for set (exact-set
// count, not the subset-closed C⟨S⟩) — what revokes and transfers are
// bounded by.
func (c *Cache) NetCount(set bitset.Mask) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, err := c.route(set)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cnt[set], nil
}

// TopUp raises license i's budget by extra, patching every affected
// slack entry in place. Budgets only rise, so dense tables update with
// one masked sweep; sparse groups refresh their minimum.
func (c *Cache) TopUp(i int, extra int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= c.n {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.topup", "headroom: license %d outside corpus", i)
	}
	if extra <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.topup", "headroom: non-positive top-up %d", extra)
	}
	c.aggs[i] += extra
	g := c.groups[c.groupOf[i]]
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.span.Has(i) {
		// i appears in no observed set: no cached equation's slack moves
		// (A[S∖span] is summed from aggs at query time).
		return nil
	}
	if !g.dense {
		c.recomputeSparseMinSlack(g)
		return nil
	}
	bit := 1 << uint(g.coord[i])
	min := unbounded
	for t := 1; t < len(g.table); t++ {
		if t&bit != 0 {
			g.table[t] += extra
		}
		if g.table[t] < min {
			min = g.table[t]
		}
	}
	g.minSlack.Store(min)
	return nil
}

// N returns the number of licenses the cache spans.
func (c *Cache) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// setShapeGauges publishes group-count and table-size gauges. Caller
// holds c.mu (any mode).
func (c *Cache) setShapeGauges() {
	M.Groups.Set(int64(len(c.groups)))
	var bytes int64
	for _, g := range c.groups {
		bytes += int64(8 * len(g.table))
	}
	M.TableBytes.Set(bytes)
}
