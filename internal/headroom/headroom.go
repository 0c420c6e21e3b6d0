// Package headroom maintains the per-group admission cache that turns
// online issuance from a full validation-tree walk into a short search
// on a kept maximum flow.
//
// Background. An issuance with belongs-to set B is aggregate-valid iff
// its count fits under min over S ⊇ B of slack(S) = A[S] − C⟨S⟩
// (vtree.Headroom). Evaluated naively that is 2^(N−|B|) equations, each a
// tree walk — fine for batch audits, fatal on a serving hot path. The
// equations are the supply–demand conditions of a transportation
// network: source → each observed belongs-to set T (capacity C_T, its
// net count) → each license i ∈ T (unbounded) → sink (capacity A_i). A
// cut that keeps the licenses X on the source side costs
// total + A[X] − C⟨X⟩, so a maximum flow falls short of the total count
// by exactly min(0, min_X slack(X)), and an unbounded source edge into
// B's node lets through min over S ⊇ B of slack(S) minus that shortfall
// (DESIGN.md §10).
//
// Group decomposition (Corollary 1.1). Instance-valid belongs-to sets
// never span overlap groups, so no flow crosses a group and each group
// keeps its own maximum flow. With deficit_k = flow_k − total_k ≤ 0,
//
//	Headroom(B) = localMin_k0(B) + Σ_{k≠k0} deficit_k
//
// where k0 is B's group and localMin_k0(B) is the extra flow B's node can
// still push plus deficit_k0. The deficit term is zero unless a recovered
// log already violates another group, preserving exact equivalence with
// the full-universe walk even then.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// unbounded is the push limit of a check, and the MinSlack of a group
// with no observed set.
const unbounded = int64(math.MaxInt64)

// Cache is the admission cache for one corpus. All methods are safe for
// concurrent use.
type Cache struct {
	// mu guards topology: grouping, aggs, and the groups slice. Admission
	// takes it shared; TopUp, Rebuild, and Verify take it exclusively.
	mu       sync.RWMutex
	n        int
	grouping overlap.Grouping
	aggs     []int64
	groupOf  []int
	groups   []*group
	// pending counts admitted-but-unconfirmed reservations (records the
	// cache has applied that the issuance log may not hold yet).
	pending atomic.Int64
}

// group is one overlap component's kept maximum flow. deficit is atomic
// so admissions in other groups read it without taking this group's
// lock; everything else is guarded by mu.
type group struct {
	mu      sync.Mutex
	members bitset.Mask
	// sets holds one node per observed belongs-to set with a positive net
	// count (issues minus revokes and expiries) — the compacted ledger
	// restricted to this group, and what Rebuild reuses so corpus changes
	// never replay the log. A set whose count returns to zero loses its
	// node, so the nodes match what a fresh build from the log derives.
	sets map[bitset.Mask]*node
	// xfer sums cumulative transferred counts per set — lifecycle
	// bookkeeping the engine's transfer-cap policy reads. Transfers do
	// not move flow.
	xfer map[bitset.Mask]int64
	// load[e] is the flow license e passes to the sink, at most its
	// budget aggs[e]; users[e] lists the nodes whose set holds e. Both
	// are indexed by global license; only members' entries are used.
	load  []int64
	users [][]*node
	// total sums the nodes' counts and flow the flow they send; deficit
	// publishes flow − total, which is min(0, the group's least slack).
	total, flow int64
	deficit     atomic.Int64
	// rejections counts admissions this group turned away (count >
	// room) over the cache's lifetime — the per-group signal behind the
	// heavy-hitter rejection ranking and the /v1/headroom summaries.
	rejections atomic.Int64
	// Path-search buffers: epoch stamps the nodes the current search
	// expanded; license e was reached through node via[e] from license
	// prev[e], or from the source when prev[e] is −1.
	epoch uint64
	via   []*node
	prev  []int
	queue []int
}

// node is one set's source edge and its edges to its member licenses.
type node struct {
	set  bitset.Mask
	cnt  int64   // net count: the source edge's capacity
	out  int64   // flow the node sends, Σ flow
	flow []int64 // flow to each member license, in ascending order
	seen uint64  // epoch of the last search that expanded the node
}

// at points at n's flow to license e, a member of n.set.
func (n *node) at(e int) *int64 {
	return &n.flow[bits.OnesCount64(uint64(n.set)&(1<<uint(e)-1))]
}

// Build replays the issuance log into a fresh cache for the given
// grouping and aggregate array — the warm-up path, used both at first
// online issuance and when recovery reopens a corpus over a WAL
// (whose ForEach replays the ledger's compacted form, one record per
// set and TTL bucket). A record whose set spans groups
// cannot arise from instance-valid issuance and fails the build with a
// KindCrossGroup error.
func Build(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store) (*Cache, error) {
	ctx, sp := trace.Start(ctx, "headroom.build")
	c, err := build(ctx, grouping, aggs, log)
	if sp != nil {
		sp.SetInt("groups", int64(grouping.NumGroups()))
		sp.Fail(err)
		sp.End()
	}
	return c, err
}

func build(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store) (*Cache, error) {
	c, err := newCache(grouping, aggs)
	if err != nil {
		return nil, err
	}
	counts := make(map[bitset.Mask]int64)
	err = logstore.ForEachContext(ctx, log, func(r logstore.Record) error {
		g, err := c.route(r.Set)
		if err != nil {
			return err
		}
		counts[r.Set] += r.Effective()
		if r.Kind == logstore.KindTransfer {
			g.xfer[r.Set] += r.Count
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := c.fill(counts); err != nil {
		return nil, err
	}
	return c, nil
}

// newCache allocates the skeleton: groups, routing table, aggregate copy.
func newCache(grouping overlap.Grouping, aggs []int64) (*Cache, error) {
	if err := grouping.Validate(); err != nil {
		return nil, drmerr.Wrap(drmerr.KindCorpusMismatch, "headroom.build", err)
	}
	if len(aggs) != grouping.N {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "headroom.build",
			"headroom: %d aggregates for %d licenses", len(aggs), grouping.N)
	}
	c := &Cache{
		n:        grouping.N,
		grouping: grouping,
		aggs:     append([]int64(nil), aggs...),
		groupOf:  make([]int, grouping.N),
		groups:   make([]*group, len(grouping.Groups)),
	}
	for k, gr := range grouping.Groups {
		c.groups[k] = &group{
			members: gr.Members,
			sets:    make(map[bitset.Mask]*node),
			xfer:    make(map[bitset.Mask]int64),
			load:    make([]int64, c.n),
			users:   make([][]*node, c.n),
			via:     make([]*node, c.n),
			prev:    make([]int, c.n),
		}
		gr.Members.ForEach(func(e int) bool {
			c.groupOf[e] = k
			return true
		})
	}
	return c, nil
}

// fill gives every set with a positive net count a node in its group,
// then pushes each group to a maximum flow. Counts are summed before any
// flow moves, so a build runs one push per distinct set however long the
// log is.
func (c *Cache) fill(counts map[bitset.Mask]int64) error {
	for set, n := range counts {
		g, err := c.route(set)
		if err != nil {
			return err
		}
		if n > 0 {
			g.add(set).cnt = n
			g.total += n
		}
	}
	for _, g := range c.groups {
		c.refill(g)
	}
	M.Rebuilds.Inc()
	M.Groups.Set(int64(len(c.groups)))
	return nil
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
	fresh, err := newCache(grouping, aggs)
	if err != nil {
		return err
	}
	counts := make(map[bitset.Mask]int64)
	xfer := make(map[bitset.Mask]int64)
	for _, old := range c.groups {
		old.mu.Lock()
		for set, n := range old.sets {
			counts[set] = n.cnt
		}
		for set, n := range old.xfer {
			xfer[set] = n
		}
		old.mu.Unlock()
	}
	for set, n := range xfer {
		g, err := fresh.route(set)
		if err != nil {
			return err
		}
		g.xfer[set] = n
	}
	if err := fresh.fill(counts); err != nil {
		return err
	}
	c.n = fresh.n
	c.grouping = fresh.grouping
	c.aggs = fresh.aggs
	c.groupOf = fresh.groupOf
	c.groups = fresh.groups
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

// add gives set a node with no count yet.
func (g *group) add(set bitset.Mask) *node {
	n := &node{set: set, flow: make([]int64, set.Len())}
	g.sets[set] = n
	set.ForEach(func(e int) bool {
		g.users[e] = append(g.users[e], n)
		return true
	})
	return n
}

// remove drops a node whose count and flow are zero.
func (g *group) remove(n *node) {
	delete(g.sets, n.set)
	n.set.ForEach(func(e int) bool {
		g.users[e] = slices.DeleteFunc(g.users[e], func(u *node) bool { return u == n })
		return true
	})
}

// sweep searches the residual network breadth-first from src's node and
// sends flow, up to limit in all, to each license below its budget that
// the search reaches, along the path that reached it. A path enters one
// of src's licenses, then repeatedly leaves a license at its budget for
// a node sending it flow — that flow is redirected to another of the
// node's licenses. A send can drain an edge of a path found earlier in
// the sweep; that path then carries nothing and the next sweep searches
// again. A sweep that sends nothing has found no path: the flow from src
// is maximum. Caller holds g.mu.
func (c *Cache) sweep(g *group, src *node, limit int64) int64 {
	g.epoch++
	src.seen = g.epoch
	reached := src.set
	q := g.queue[:0]
	for w := uint64(src.set); w != 0; w &= w - 1 {
		e := bits.TrailingZeros64(w)
		g.via[e], g.prev[e] = src, -1
		q = append(q, e)
	}
	var sent int64
	for head := 0; head < len(q) && sent < limit; head++ {
		e := q[head]
		if g.load[e] < c.aggs[e] {
			sent += c.send(g, e, limit-sent)
			if g.load[e] < c.aggs[e] {
				continue
			}
		}
		for _, n := range g.users[e] {
			if n.seen == g.epoch || *n.at(e) == 0 {
				continue
			}
			n.seen = g.epoch
			for w := uint64(n.set &^ reached); w != 0; w &= w - 1 {
				f := bits.TrailingZeros64(w)
				g.via[f], g.prev[f] = n, e
				q = append(q, f)
			}
			reached |= n.set
		}
	}
	g.queue = q
	return sent
}

// send moves flow along the path sweep found to license end: the least
// of limit, end's unused budget and every flow the path redirects.
func (c *Cache) send(g *group, end int, limit int64) int64 {
	d := min(limit, c.aggs[end]-g.load[end])
	for f := end; g.prev[f] >= 0 && d > 0; f = g.prev[f] {
		d = min(d, *g.via[f].at(g.prev[f]))
	}
	if d == 0 {
		return 0
	}
	g.load[end] += d
	for f := end; ; f = g.prev[f] {
		n, p := g.via[f], g.prev[f]
		*n.at(f) += d
		if p < 0 {
			n.out += d
			g.flow += d
			return d
		}
		*n.at(p) -= d
	}
}

// push sends up to limit more units from n's node, a sweep at a time,
// and returns the amount sent.
func (c *Cache) push(g *group, n *node, limit int64) int64 {
	var sent int64
	for sent < limit {
		d := c.sweep(g, n, limit-sent)
		if d == 0 {
			break
		}
		sent += d
	}
	return sent
}

// cancel withdraws amount units of n's flow, from its licenses in order.
func (g *group) cancel(n *node, amount int64) {
	if amount <= 0 {
		return
	}
	n.out -= amount
	g.flow -= amount
	i := 0
	for w := uint64(n.set); amount > 0; w &= w - 1 {
		e := bits.TrailingZeros64(w)
		take := min(n.flow[i], amount)
		n.flow[i] -= take
		g.load[e] -= take
		amount -= take
		i++
	}
}

// refill pushes every set short of its count as far as it goes, then
// publishes the deficit. One pass leaves a maximum flow: a set with no
// path left gains none while later sets push (DESIGN.md §10). A group
// with no deficit has every set full and nothing to refill.
func (c *Cache) refill(g *group) {
	if g.flow < g.total {
		for _, n := range g.sets {
			if n.out < n.cnt {
				c.push(g, n, n.cnt-n.out)
			}
		}
	}
	g.deficit.Store(g.flow - g.total)
}

// reach pushes all the flow set's node can still take, giving a new set
// a node with no count first, and returns the node and the amount sent:
// localMin(set) is that amount plus the group's deficit. The caller
// settles the amount with keep. Caller holds g.mu.
func (c *Cache) reach(g *group, set bitset.Mask) (*node, int64) {
	n := g.sets[set]
	if n == nil {
		n = g.add(set)
	}
	return n, c.push(g, n, unbounded)
}

// keep settles what reach sent through n: count units of it stay, as
// more count on n, and the rest is withdrawn. Keeping at most the local
// room leaves the deficit where it was (DESIGN.md §10), so no set needs
// refilling.
func (g *group) keep(n *node, sent, count int64) {
	n.cnt += count
	g.total += count
	g.cancel(n, sent-count)
	if n.cnt == 0 {
		g.remove(n)
	}
}

// lower drops n's count by count and withdraws the flow above it. The
// freed budget may let a set the group was short on push further, so a
// group in deficit refills.
func (c *Cache) lower(g *group, n *node, count int64) {
	n.cnt -= count
	g.total -= count
	g.cancel(n, n.out-n.cnt)
	if n.cnt == 0 {
		g.remove(n)
	}
	c.refill(g)
}

// deficitExcept sums the deficits of every group but skip — the
// cross-group correction that keeps cached headroom exactly equal to the
// full-universe walk when a recovered log already violates other groups.
func (c *Cache) deficitExcept(skip *group) int64 {
	var total int64
	for _, g := range c.groups {
		if g != skip {
			total += g.deficit.Load()
		}
	}
	return total
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
	defer g.mu.Unlock()
	n, sent := c.reach(g, set)
	room := sent + g.deficit.Load() + c.deficitExcept(g)
	g.keep(n, sent, 0)
	return room, nil
}

// Admit atomically checks and reserves one issuance: if count fits under
// the cached headroom for set, count more units stay on the set's node
// and ok is true; otherwise nothing changes and the rejecting headroom
// is returned. After a successful Admit the caller must append the
// record to its log and call Confirm, or Release to undo a failed
// append. The check and the reservation run under one group lock, so
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
	n, sent := c.reach(g, set)
	room = sent + g.deficit.Load() + c.deficitExcept(g)
	if csp != nil {
		csp.SetInt("headroom", room)
		csp.End()
	}
	if count > room {
		g.keep(n, sent, 0)
		g.rejections.Add(1)
		g.mu.Unlock()
		M.Rejected.Inc()
		return room, false, nil
	}
	_, asp := trace.Start(ctx, "headroom.apply")
	g.keep(n, sent, count)
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

// Release rolls back an admitted-but-unlogged reservation (the log
// append failed): the set's count drops back and the reservation
// retires. A set whose count returns to zero loses its node, as a
// rebuild from the log would derive.
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
	if n := g.sets[set]; n != nil {
		c.lower(g, n, min(count, n.cnt))
	}
	return nil
}

// Hold registers an in-flight lifecycle mutation (a revoke, expiry, or
// transfer between its log append and the matching cache update) so
// Verify treats the cache as non-quiescent. Every Hold must be paired
// with a Confirm.
func (c *Cache) Hold() { c.pending.Add(1) }

// Credit applies a durably-logged debit record (revoke or expire) to
// the cache: the set's net count drops by count, so every equation
// S ⊇ set gains count of slack. Callers bracket the log append and the
// Credit with Hold/Confirm so Verify never observes the halfway state. A
// count exceeding the cached net count means the cache has diverged from
// the log (the store would have refused the append) and is reported as
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
	n := g.sets[set]
	if n == nil || count > n.cnt {
		return drmerr.New(drmerr.KindHeadroomDivergence, "headroom.credit",
			"headroom: credit of %d against cached net count %d for set %v", count, g.count(set), set)
	}
	c.lower(g, n, count)
	return nil
}

// count returns set's net count, 0 when it has no node. Caller holds
// g.mu.
func (g *group) count(set bitset.Mask) int64 {
	if n := g.sets[set]; n != nil {
		return n.cnt
	}
	return 0
}

// ApplyTransfer records a durably-logged transfer against the cache's
// per-set transfer totals. The flow is untouched — transfers move
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
	return g.count(set), nil
}

// TopUp raises license i's budget by extra. A higher sink capacity can
// only let a set the group was short on push further, so a group in
// deficit refills.
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
	c.refill(g)
	return nil
}
