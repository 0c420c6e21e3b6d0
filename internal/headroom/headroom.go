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
// One network (Corollary 1.1). Instance-valid belongs-to sets never span
// overlap groups, so no path of the network crosses one: a search from
// B's node never leaves B's group, and Thm 2's groups emerge from the
// sweep instead of being kept apart. With deficit = flow − total ≤ 0
// over the whole network,
//
//	Headroom(B) = sent(B) + deficit
//
// where sent(B) is the extra flow B's node can still push. The deficit
// is zero unless a recovered log already violates some group, preserving
// exact equivalence with the full-universe walk even then.
//
// Concurrency. A Cache is plain data for one writer: no method is safe
// for concurrent use. engine.Distributor guards its cache with its own
// mutex, under which it admits, appends, credits and reads.
package headroom

import (
	"context"
	"math"
	"math/bits"
	"slices"
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

// Cache is the admission cache for one corpus: one kept maximum flow
// over every license.
type Cache struct {
	n        int
	grouping overlap.Grouping
	aggs     []int64
	// span[e] is the members of license e's overlap group; a set must lie
	// in its least license's span (the cross-group check).
	span []bitset.Mask
	// sets holds one node per observed belongs-to set with a positive net
	// count (issues minus revokes and expiries) — the compacted ledger. A
	// set whose count returns to zero loses its node, so the nodes match
	// what a fresh build from the log derives.
	sets map[bitset.Mask]*node
	// xfer sums cumulative transferred counts per set — lifecycle
	// bookkeeping the engine's transfer-cap policy reads. Transfers do
	// not move flow.
	xfer map[bitset.Mask]int64
	// load[e] is the flow license e passes to the sink, at most its
	// budget aggs[e]; users[e] lists the nodes whose set holds e.
	load  []int64
	users [][]*node
	// total sums the nodes' counts and flow the flow they send; flow −
	// total is the deficit, min(0, the least slack of any equation).
	total, flow int64
	// rejections[e] counts the admissions refused for sets whose least
	// license is e, over the cache's lifetime — summed per group for the
	// heavy-hitter ranking and the /v1/headroom summaries.
	rejections []int64
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

// build sums the log's counts per set, gives every set with a positive
// net count a node, then pushes the network to a maximum flow. Counts
// are summed before any flow moves, so a build runs one push per
// distinct set however long the log is.
func build(ctx context.Context, grouping overlap.Grouping, aggs []int64, log logstore.Store) (*Cache, error) {
	if err := grouping.Validate(); err != nil {
		return nil, drmerr.Wrap(drmerr.KindCorpusMismatch, "headroom.build", err)
	}
	if len(aggs) != grouping.N {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "headroom.build",
			"headroom: %d aggregates for %d licenses", len(aggs), grouping.N)
	}
	n := grouping.N
	c := &Cache{
		aggs:       slices.Clone(aggs),
		sets:       make(map[bitset.Mask]*node),
		xfer:       make(map[bitset.Mask]int64),
		load:       make([]int64, n),
		users:      make([][]*node, n),
		rejections: make([]int64, n),
		via:        make([]*node, n),
		prev:       make([]int, n),
	}
	c.regroup(grouping)
	counts := make(map[bitset.Mask]int64)
	err := logstore.ForEachContext(ctx, log, func(r logstore.Record) error {
		if err := c.route(r.Set); err != nil {
			return err
		}
		counts[r.Set] += r.Effective()
		if r.Kind == logstore.KindTransfer {
			c.xfer[r.Set] += r.Count
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for set, cnt := range counts {
		if cnt > 0 {
			c.add(set).cnt = cnt
			c.total += cnt
		}
	}
	c.refill()
	M.Rebuilds.Inc()
	return c, nil
}

// regroup installs grouping and the span it gives each license.
func (c *Cache) regroup(grouping overlap.Grouping) {
	c.n, c.grouping = grouping.N, grouping
	c.span = make([]bitset.Mask, grouping.N)
	for _, g := range grouping.Groups {
		g.Members.ForEach(func(e int) bool {
			c.span[e] = g.Members
			return true
		})
	}
	M.Groups.Set(int64(grouping.NumGroups()))
}

// Grow adds license c.n with budget agg — one new sink edge — under
// grouping, the corpus's grouping with the new license in it. No set
// holds the new license yet, so no path reaches its edge and nothing is
// refilled or replayed. The grouping moves because the cross-group check
// and the summaries read it: groups the new license merges may be
// spanned by sets from now on.
func (c *Cache) Grow(grouping overlap.Grouping, agg int64) error {
	if err := grouping.Validate(); err != nil {
		return drmerr.Wrap(drmerr.KindCorpusMismatch, "headroom.grow", err)
	}
	if grouping.N != c.n+1 {
		return drmerr.New(drmerr.KindCorpusMismatch, "headroom.grow",
			"headroom: grouping of %d licenses grows a cache of %d", grouping.N, c.n)
	}
	c.aggs = append(c.aggs, agg)
	c.load = append(c.load, 0)
	c.users = append(c.users, nil)
	c.rejections = append(c.rejections, 0)
	c.via = append(c.via, nil)
	c.prev = append(c.prev, 0)
	c.regroup(grouping)
	return nil
}

// route checks that set is a valid belongs-to set: non-empty, inside
// the universe and inside one overlap group.
func (c *Cache) route(set bitset.Mask) error {
	if set.Empty() {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.route", "headroom: empty belongs-to set")
	}
	if !set.SubsetOf(bitset.FullMask(c.n)) {
		return drmerr.New(drmerr.KindCorpusMismatch, "headroom.route",
			"headroom: set %v outside universe of %d licenses", set, c.n)
	}
	if !set.SubsetOf(c.span[set.Min()]) {
		return drmerr.New(drmerr.KindCrossGroup, "headroom.route",
			"headroom: set %v spans overlap groups", set)
	}
	return nil
}

// add gives set a node with no count yet.
func (c *Cache) add(set bitset.Mask) *node {
	n := &node{set: set, flow: make([]int64, set.Len())}
	c.sets[set] = n
	set.ForEach(func(e int) bool {
		c.users[e] = append(c.users[e], n)
		return true
	})
	return n
}

// remove drops a node whose count and flow are zero.
func (c *Cache) remove(n *node) {
	delete(c.sets, n.set)
	n.set.ForEach(func(e int) bool {
		c.users[e] = slices.DeleteFunc(c.users[e], func(u *node) bool { return u == n })
		return true
	})
}

// sweep searches the residual network breadth-first from src's node and
// sends flow, up to limit in all, to each license below its budget that
// the search reaches, along the path that reached it. A path enters one
// of src's licenses, then repeatedly leaves a license at its budget for
// a node sending it flow — that flow is redirected to another of the
// node's licenses. The search never leaves src's overlap group, since no
// node spans two. A send can drain an edge of a path found earlier in
// the sweep; that path then carries nothing and the next sweep searches
// again. A sweep that sends nothing has found no path: the flow from src
// is maximum.
func (c *Cache) sweep(src *node, limit int64) int64 {
	c.epoch++
	src.seen = c.epoch
	reached := src.set
	q := c.queue[:0]
	for w := uint64(src.set); w != 0; w &= w - 1 {
		e := bits.TrailingZeros64(w)
		c.via[e], c.prev[e] = src, -1
		q = append(q, e)
	}
	var sent int64
	for head := 0; head < len(q) && sent < limit; head++ {
		e := q[head]
		if c.load[e] < c.aggs[e] {
			sent += c.send(e, limit-sent)
			if c.load[e] < c.aggs[e] {
				continue
			}
		}
		for _, n := range c.users[e] {
			if n.seen == c.epoch || *n.at(e) == 0 {
				continue
			}
			n.seen = c.epoch
			for w := uint64(n.set &^ reached); w != 0; w &= w - 1 {
				f := bits.TrailingZeros64(w)
				c.via[f], c.prev[f] = n, e
				q = append(q, f)
			}
			reached |= n.set
		}
	}
	c.queue = q
	return sent
}

// send moves flow along the path sweep found to license end: the least
// of limit, end's unused budget and every flow the path redirects.
func (c *Cache) send(end int, limit int64) int64 {
	d := min(limit, c.aggs[end]-c.load[end])
	for f := end; c.prev[f] >= 0 && d > 0; f = c.prev[f] {
		d = min(d, *c.via[f].at(c.prev[f]))
	}
	if d == 0 {
		return 0
	}
	c.load[end] += d
	for f := end; ; f = c.prev[f] {
		n, p := c.via[f], c.prev[f]
		*n.at(f) += d
		if p < 0 {
			n.out += d
			c.flow += d
			return d
		}
		*n.at(p) -= d
	}
}

// push sends up to limit more units from n's node, a sweep at a time,
// and returns the amount sent.
func (c *Cache) push(n *node, limit int64) int64 {
	var sent int64
	for sent < limit {
		d := c.sweep(n, limit-sent)
		if d == 0 {
			break
		}
		sent += d
	}
	return sent
}

// cancel withdraws amount units of n's flow, from its licenses in order.
func (c *Cache) cancel(n *node, amount int64) {
	if amount <= 0 {
		return
	}
	n.out -= amount
	c.flow -= amount
	i := 0
	for w := uint64(n.set); amount > 0; w &= w - 1 {
		e := bits.TrailingZeros64(w)
		take := min(n.flow[i], amount)
		n.flow[i] -= take
		c.load[e] -= take
		amount -= take
		i++
	}
}

// refill pushes every set short of its count as far as it goes. One pass
// leaves a maximum flow: a set with no path left gains none while later
// sets push (DESIGN.md §10). A network with no deficit has every set
// full and nothing to refill.
func (c *Cache) refill() {
	if c.flow < c.total {
		for _, n := range c.sets {
			if n.out < n.cnt {
				c.push(n, n.cnt-n.out)
			}
		}
	}
}

// reach pushes all the flow set's node can still take, giving a new set
// a node with no count first. It returns the node, the amount sent and
// the room: the amount plus the deficit it was sent against. The caller
// settles the amount with keep.
func (c *Cache) reach(set bitset.Mask) (n *node, sent, room int64) {
	n = c.sets[set]
	if n == nil {
		n = c.add(set)
	}
	deficit := c.flow - c.total
	sent = c.push(n, unbounded)
	return n, sent, sent + deficit
}

// keep settles what reach sent through n: count units of it stay, as
// more count on n, and the rest is withdrawn. Keeping at most the room
// leaves the deficit where it was (DESIGN.md §10), so no set needs
// refilling.
func (c *Cache) keep(n *node, sent, count int64) {
	n.cnt += count
	c.total += count
	c.cancel(n, sent-count)
	if n.cnt == 0 {
		c.remove(n)
	}
}

// lower drops n's count by count and withdraws the flow above it. The
// freed budget may let a set the network was short on push further, so
// a network in deficit refills.
func (c *Cache) lower(n *node, count int64) {
	n.cnt -= count
	c.total -= count
	c.cancel(n, n.out-n.cnt)
	if n.cnt == 0 {
		c.remove(n)
	}
	c.refill()
}

// Headroom returns the largest count issuable against set without
// violating any validation equation — the cached equivalent of
// vtree.Headroom over the full corpus. It changes nothing.
func (c *Cache) Headroom(set bitset.Mask) (int64, error) {
	if err := c.route(set); err != nil {
		return 0, err
	}
	n, sent, room := c.reach(set)
	c.keep(n, sent, 0)
	return room, nil
}

// Admit checks and applies one issuance: if count fits under the cached
// headroom for set, count more units stay on the set's node and ok is
// true; otherwise nothing changes and the refusing headroom is returned.
// A caller whose log append then fails takes the count back with Credit.
func (c *Cache) Admit(ctx context.Context, set bitset.Mask, count int64) (room int64, ok bool, err error) {
	start := time.Now()
	defer M.CheckSeconds.ObserveSince(start)
	M.Checks.Inc()
	if err := c.route(set); err != nil {
		return 0, false, err
	}
	if count <= 0 {
		return 0, false, drmerr.New(drmerr.KindInvalidInput, "headroom.admit",
			"headroom: non-positive count %d", count)
	}
	_, csp := trace.Start(ctx, "headroom.check")
	n, sent, room := c.reach(set)
	if csp != nil {
		csp.SetInt("headroom", room)
		csp.End()
	}
	if count > room {
		c.keep(n, sent, 0)
		c.rejections[set.Min()]++
		M.Rejected.Inc()
		return room, false, nil
	}
	_, asp := trace.Start(ctx, "headroom.apply")
	c.keep(n, sent, count)
	if asp != nil {
		asp.SetInt("count", count)
		asp.End()
	}
	M.Admitted.Inc()
	return room, true, nil
}

// Confirm does nothing: an admission reserves nothing, so there is
// nothing to confirm. perfbench's traced pass still calls it.
//
// Deprecated: Admit applies the count; undo it with Credit.
func (c *Cache) Confirm() {}

// Credit applies a debit to the cache — a durably-logged revoke or
// expire record, or the undo of an Admit whose log append failed: the
// set's net count drops by count, so every equation S ⊇ set gains count
// of slack. A count exceeding the cached net count means the cache has
// diverged from the log (the store would have refused the append) and is
// reported as KindHeadroomDivergence.
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
	if err := c.route(set); err != nil {
		return err
	}
	if count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.credit",
			"headroom: non-positive credit %d", count)
	}
	n := c.sets[set]
	if n == nil || count > n.cnt {
		return drmerr.New(drmerr.KindHeadroomDivergence, "headroom.credit",
			"headroom: credit of %d against cached net count %d for set %v", count, c.count(set), set)
	}
	c.lower(n, count)
	return nil
}

// count returns set's net count, 0 when it has no node.
func (c *Cache) count(set bitset.Mask) int64 {
	if n := c.sets[set]; n != nil {
		return n.cnt
	}
	return 0
}

// ApplyTransfer records a durably-logged transfer against the cache's
// per-set transfer totals. The flow is untouched — transfers move
// permissions between consumers, not against the corpus.
func (c *Cache) ApplyTransfer(set bitset.Mask, count int64) error {
	if err := c.route(set); err != nil {
		return err
	}
	if count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.transfer",
			"headroom: non-positive transfer %d", count)
	}
	c.xfer[set] += count
	return nil
}

// Transferred returns the cumulative transferred total for set (0 if
// the set routes but has no transfers) — the number the engine's
// transfer-cap policy compares against.
func (c *Cache) Transferred(set bitset.Mask) (int64, error) {
	if err := c.route(set); err != nil {
		return 0, err
	}
	return c.xfer[set], nil
}

// NetCount returns the cached net outstanding count for set (exact-set
// count, not the subset-closed C⟨S⟩) — what revokes and transfers are
// bounded by.
func (c *Cache) NetCount(set bitset.Mask) (int64, error) {
	if err := c.route(set); err != nil {
		return 0, err
	}
	return c.count(set), nil
}

// TopUp raises license i's budget by extra. A higher sink capacity can
// only let a set the network was short on push further, so a network in
// deficit refills.
func (c *Cache) TopUp(i int, extra int64) error {
	if i < 0 || i >= c.n {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.topup", "headroom: license %d outside corpus", i)
	}
	if extra <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, "headroom.topup", "headroom: non-positive top-up %d", extra)
	}
	c.aggs[i] += extra
	c.refill()
	return nil
}
