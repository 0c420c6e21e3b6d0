// Package engine simulates the DRM distribution chain the paper assumes
// around its validator: an owner grants redistribution licenses to
// distributors; distributors issue usage (and sub-redistribution) licenses
// to consumers; a validation authority instance-validates every issuance,
// logs its belongs-to set and count, and audits the aggregate constraints
// offline (§1–§2).
//
// A Distributor manages one (content, permission) corpus:
//
//   - instance validation uses an R-tree over the corpus rectangles
//     (internal/rtree);
//   - in ModeOnline every issuance is additionally aggregate-checked
//     immediately against the incrementally maintained headroom cache
//     (internal/headroom), so violations are rejected at issue time
//     (loss-free, Example 1's desired behaviour) without walking the
//     validation tree — admission is a push on the group's kept maximum
//     flow, and batch audits cross-check the cache afterwards;
//   - in ModeOffline issuances are only logged — the paper's operating
//     point, where "violation of aggregate constraints is not a frequent
//     event" and auditing happens in batch via the geometric validator.
//
// Issue, Audit, Stats, and the headroom queries are safe for concurrent
// use; corpus mutations (AddRedistribution, TopUp) require external
// exclusion against in-flight issuances, matching how drmserver holds
// its corpus write lock.
//
// A Network is a directory of distributors keyed by (distributor, content,
// permission), so multi-party scenarios read naturally in the examples.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/geometry"
	"repro/internal/headroom"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/rtree"
	"repro/internal/slo"
	"repro/internal/trace"
)

// Hitters, when non-nil, receives per-issuance heavy-hitter attribution
// (entry = distributor name, group = overlap component) for request
// counts, cumulative latency, and headroom rejections. Wired by the
// server alongside InstrumentAll; nil (the default) costs one pointer
// compare per issuance.
var Hitters *slo.Hitters

// Mode selects when aggregate validation happens.
type Mode int

const (
	// ModeOffline logs issuances without aggregate checks; call Audit to
	// validate in batch (the paper's setting).
	ModeOffline Mode = iota
	// ModeOnline rejects issuances that would violate any validation
	// equation, using Headroom over a live validation tree.
	ModeOnline
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOffline:
		return "offline"
	case ModeOnline:
		return "online"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Sentinel errors distinguish the two rejection classes. They are typed
// with drmerr kinds, so errors.Is against the sentinel and
// drmerr.KindOf both classify a rejection.
var (
	// ErrInstanceInvalid marks an issuance whose rectangle is not
	// contained in any redistribution license (like L_U^2 in fig 2).
	ErrInstanceInvalid = drmerr.Sentinel(drmerr.KindInstanceInvalid,
		"engine: issuance fails instance-based validation")
	// ErrAggregateExhausted marks an online-mode issuance that would
	// violate a validation equation.
	ErrAggregateExhausted = drmerr.Sentinel(drmerr.KindViolation,
		"engine: issuance would violate an aggregate constraint")
)

// Stats counts a distributor's issuance and lifecycle outcomes.
type Stats struct {
	// Issued counts accepted issuances; IssuedCounts sums their counts.
	Issued       int
	IssuedCounts int64
	// RejectedInstance and RejectedAggregate count the two failure modes.
	RejectedInstance  int
	RejectedAggregate int
	// Revoked/Expired/Transferred count accepted lifecycle operations;
	// the *Counts fields sum the permission counts they moved.
	Revoked           int
	RevokedCounts     int64
	Expired           int
	ExpiredCounts     int64
	Transferred       int
	TransferredCounts int64
}

// Distributor manages one (content, permission) license corpus and its
// issuance log. Issuance, audits, stats, and headroom queries are safe
// for concurrent use (given a concurrency-safe log store — Mem and the
// WAL both are); corpus mutations require external exclusion.
type Distributor struct {
	name    string
	mode    Mode
	corpus  *license.Corpus
	grouper *overlap.Grouper
	index   *rtree.Tree
	log     logstore.Store

	// mu guards the cache pointer and its freshness flags. cacheDirty
	// marks a corpus change (rebuild from the cache's retained counts —
	// no log replay); cacheStale marks log appends the cache never saw
	// (offline issuance after a headroom query — full replay). Building
	// lazily keeps the catalog-reopen path — corpus loaded license by
	// license over a pre-existing log — to a single warm-up replay.
	mu         sync.Mutex
	cache      *headroom.Cache
	cacheDirty bool
	cacheStale bool

	// sweepMu serialises expiry sweeps: the schedule is read from a
	// ledger snapshot, so two concurrent sweeps over the same snapshot
	// would both try to debit the same due buckets (the store would
	// refuse the second as unsound — correct but noisy).
	sweepMu sync.Mutex

	// transferCap bounds the cumulative per-set transfer total (0 =
	// unlimited). Policy, not ledger soundness: enforced only on the
	// online path, against totals that survive log compaction.
	transferCap atomic.Int64

	// readOnly gates every mutation while the distributor serves a
	// replication mirror; see replica.go.
	readOnly atomic.Bool

	issued            atomic.Int64
	issuedCounts      atomic.Int64
	rejectedInstance  atomic.Int64
	rejectedAggregate atomic.Int64
	revoked           atomic.Int64
	revokedCounts     atomic.Int64
	expired           atomic.Int64
	expiredCounts     atomic.Int64
	transferred       atomic.Int64
	transferredCounts atomic.Int64
	seq               atomic.Int64
}

// NewDistributor creates a distributor over the schema writing to the given
// log store (NewMem is a fine default).
func NewDistributor(name string, schema *geometry.Schema, mode Mode, log logstore.Store) *Distributor {
	corpus := license.NewCorpus(schema)
	return &Distributor{
		name:    name,
		mode:    mode,
		corpus:  corpus,
		grouper: overlap.NewGrouper(corpus),
		index:   rtree.New(schema, rtree.DefaultMaxEntries),
		log:     log,
	}
}

// Name returns the distributor's name.
func (d *Distributor) Name() string { return d.name }

// Corpus exposes the redistribution-license corpus (read-only use).
func (d *Distributor) Corpus() *license.Corpus { return d.corpus }

// Stats returns issuance counters. All counters are maintained
// atomically, so Stats is safe (and consistent per counter) under
// concurrent issuance.
func (d *Distributor) Stats() Stats {
	return Stats{
		Issued:            int(d.issued.Load()),
		IssuedCounts:      d.issuedCounts.Load(),
		RejectedInstance:  int(d.rejectedInstance.Load()),
		RejectedAggregate: int(d.rejectedAggregate.Load()),
		Revoked:           int(d.revoked.Load()),
		RevokedCounts:     d.revokedCounts.Load(),
		Expired:           int(d.expired.Load()),
		ExpiredCounts:     d.expiredCounts.Load(),
		Transferred:       int(d.transferred.Load()),
		TransferredCounts: d.transferredCounts.Load(),
	}
}

// NumGroups returns the current number of disconnected license groups,
// maintained incrementally as licenses arrive.
func (d *Distributor) NumGroups() int { return d.grouper.NumGroups() }

// AddRedistribution registers a redistribution license received from
// upstream (the owner or a parent distributor) and returns its corpus
// index. An existing headroom cache is re-sized to the new corpus (and
// any merged groups) at the next admission, from its own retained
// counts — the log is never replayed again.
func (d *Distributor) AddRedistribution(l *license.License) (int, error) {
	idx, err := d.grouper.Add(l) // validates kind/schema and updates groups
	if err != nil {
		return 0, err
	}
	if err := d.index.Insert(l.Rect, idx); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.cacheDirty = true
	d.mu.Unlock()
	return idx, nil
}

// ensureCache returns a headroom cache consistent with the corpus and
// the log, building or refreshing it as needed. The first build replays
// the log (for a WAL-backed store that is the ledger's compacted form,
// O(distinct sets) — the recovery warm-up); corpus changes rebuild from
// the cache's retained counts without touching the log.
func (d *Distributor) ensureCache(ctx context.Context) (*headroom.Cache, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cache != nil && !d.cacheDirty && !d.cacheStale {
		return d.cache, nil
	}
	if d.cache == nil || d.cacheStale {
		c, err := headroom.Build(ctx, d.grouper.Grouping(), d.corpus.Aggregates(), d.log)
		if err != nil {
			return nil, err
		}
		d.cache = c
	} else if err := d.cache.Rebuild(ctx, d.grouper.Grouping(), d.corpus.Aggregates()); err != nil {
		return nil, err
	}
	d.cacheDirty, d.cacheStale = false, false
	return d.cache, nil
}

// WarmHeadroom builds the headroom cache eagerly — the recovery hook:
// catalog reopen calls it right after replaying corpus and WAL so the
// first issuance pays no warm-up.
func (d *Distributor) WarmHeadroom(ctx context.Context) error {
	_, err := d.ensureCache(ctx)
	return err
}

// HeadroomContext returns the remaining aggregate budget for an
// issuance against set, served from the cache.
func (d *Distributor) HeadroomContext(ctx context.Context, set bitset.Mask) (int64, error) {
	cache, err := d.ensureCache(ctx)
	if err != nil {
		return 0, err
	}
	return cache.Headroom(set)
}

// HeadroomSummaries returns the cache's per-group min-slack summaries —
// the payload of drmserver's /v1/headroom debug endpoint.
func (d *Distributor) HeadroomSummaries(ctx context.Context) ([]headroom.GroupSummary, error) {
	cache, err := d.ensureCache(ctx)
	if err != nil {
		return nil, err
	}
	return cache.Summaries(), nil
}

// HeadroomPending returns the number of admitted-but-unconfirmed cache
// reservations — zero when no cache has been built yet, and transiently
// non-zero between an admission and its log append confirming.
func (d *Distributor) HeadroomPending() int64 {
	d.mu.Lock()
	cache := d.cache
	d.mu.Unlock()
	if cache == nil {
		return 0
	}
	return cache.Pending()
}

// BelongsTo runs instance validation for a candidate rectangle and returns
// the belongs-to set as a mask (empty = instance-invalid).
func (d *Distributor) BelongsTo(rect geometry.Rect) bitset.Mask {
	var set bitset.Mask
	for _, j := range d.index.SearchContaining(rect) {
		set = set.With(j)
	}
	return set
}

// Issue processes one issuance request: a new license of the given kind
// with constraint rectangle rect and permission count. On success the
// issued license is returned and the issuance is logged. It is
// IssueContext with a background context.
func (d *Distributor) Issue(kind license.Kind, rect geometry.Rect, count int64) (*license.License, error) {
	return d.IssueContext(context.Background(), kind, rect, count)
}

// IssueContext is Issue under a context: cancellation is checked before
// the instance search and again before the (potentially log-replaying)
// online aggregate check, so an abandoned request never appends to the
// log. A cancelled issuance returns a KindCancelled error.
func (d *Distributor) IssueContext(ctx context.Context, kind license.Kind, rect geometry.Rect, count int64) (*license.License, error) {
	return d.issueTraced(ctx, kind, rect, count, 0)
}

// IssueTTLContext is IssueContext for a time-limited license: the
// issuance record carries expiry (Unix seconds), so the counts it grants
// are debited back automatically when ExpireSweep runs past that moment.
// Until then the issuance consumes headroom exactly like a plain one.
func (d *Distributor) IssueTTLContext(ctx context.Context, kind license.Kind, rect geometry.Rect, count int64, expiry int64) (*license.License, error) {
	if expiry <= 0 {
		return nil, drmerr.New(drmerr.KindInvalidInput, "engine.issue",
			"engine: non-positive expiry %d", expiry)
	}
	return d.issueTraced(ctx, kind, rect, count, expiry)
}

func (d *Distributor) issueTraced(ctx context.Context, kind license.Kind, rect geometry.Rect, count, expiry int64) (*license.License, error) {
	start := time.Now()
	ctx, isp := trace.Start(ctx, "engine.issue")
	lic, err := d.issueContext(ctx, kind, rect, count, expiry, start)
	if isp != nil {
		isp.SetAttr("distributor", d.name)
		isp.SetInt("count", count)
		isp.Fail(err)
		isp.End()
	}
	if M.IssueSeconds != nil {
		// The guard keeps the uninstrumented path from formatting a trace
		// ID it would throw away; with a registry wired, traced issuances
		// leave a bucket exemplar pointing at their trace.
		M.IssueSeconds.ObserveExemplar(time.Since(start).Seconds(), trace.IDFromContext(ctx))
	}
	return lic, err
}

// recordHitter attributes one decided issuance (accept or aggregate
// reject) to its entry and overlap group in the heavy-hitter sketches.
// The group label is derived from the set's first member via the cheap
// union-find root walk — no per-issuance map materialisation.
func (d *Distributor) recordHitter(set bitset.Mask, start time.Time, rejected bool) {
	h := Hitters
	if h == nil || set.Empty() {
		return
	}
	root := d.grouper.RootOf(set.Min())
	h.ObserveIssue(d.name, d.name+"#g"+strconv.Itoa(root), time.Since(start), rejected)
}

func (d *Distributor) issueContext(ctx context.Context, kind license.Kind, rect geometry.Rect, count, expiry int64, start time.Time) (*license.License, error) {
	if err := ctx.Err(); err != nil {
		return nil, drmerr.Wrap(drmerr.KindCancelled, "engine.issue", err)
	}
	if err := d.readOnlyErr("engine.issue"); err != nil {
		return nil, err
	}
	if d.corpus.Len() == 0 {
		return nil, fmt.Errorf("%w: distributor %s holds no redistribution licenses", ErrInstanceInvalid, d.name)
	}
	if count <= 0 {
		return nil, drmerr.New(drmerr.KindInvalidInput, "engine.issue", "engine: non-positive count %d", count)
	}
	_, bsp := trace.Start(ctx, "engine.instance")
	set := d.BelongsTo(rect)
	if bsp != nil {
		bsp.SetInt("set_size", int64(set.Len()))
		bsp.End()
	}
	if set.Empty() {
		d.rejectedInstance.Add(1)
		M.RejectedInstance.Inc()
		return nil, fmt.Errorf("%w: %s not contained in any redistribution license", ErrInstanceInvalid, rect)
	}
	rec := logstore.Record{Set: set, Count: count, Meta: logstore.Meta{Expiry: expiry}}
	if d.mode == ModeOnline {
		if err := ctx.Err(); err != nil {
			return nil, drmerr.Wrap(drmerr.KindCancelled, "engine.issue", err)
		}
		// The hot path: check the cached slack and reserve under the
		// group lock, append to the log, confirm. No tree walk, no
		// replay; a failed append releases the reservation.
		hctx, hsp := trace.Start(ctx, "engine.headroom")
		cache, err := d.ensureCache(hctx)
		var room int64
		var ok bool
		if err == nil {
			room, ok, err = cache.Admit(hctx, set, count)
		}
		if hsp != nil {
			if err == nil {
				hsp.SetInt("headroom", room)
			}
			hsp.Fail(err)
			hsp.End()
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			d.rejectedAggregate.Add(1)
			M.RejectedAggregate.Inc()
			d.recordHitter(set, start, true)
			return nil, fmt.Errorf("%w: requested %d, headroom %d for %v", ErrAggregateExhausted, count, room, set)
		}
		if err := logstore.AppendContext(ctx, d.log, rec); err != nil {
			if rerr := cache.Release(set, count); rerr != nil {
				return nil, errors.Join(err, rerr)
			}
			return nil, err
		}
		cache.Confirm()
	} else {
		if err := logstore.AppendContext(ctx, d.log, rec); err != nil {
			return nil, err
		}
		// An offline append behind an existing cache (built for headroom
		// queries) leaves it stale; the next query replays the log.
		d.mu.Lock()
		if d.cache != nil {
			d.cacheStale = true
		}
		d.mu.Unlock()
	}
	d.issued.Add(1)
	d.issuedCounts.Add(count)
	M.Issued.Inc()
	M.IssuedCounts.Add(count)
	d.recordHitter(set, start, false)
	seq := d.seq.Add(1)
	first := d.corpus.License(0)
	return &license.License{
		Name:       fmt.Sprintf("%s/U%d", d.name, seq),
		Kind:       kind,
		Content:    first.Content,
		Permission: first.Permission,
		Rect:       rect,
		Aggregate:  count,
	}, nil
}

// TopUp raises the budget of the redistribution license at corpus index i
// by extra — the remediation an owner applies when audits show a group
// running hot. Cached headroom reflects the new budget immediately: the
// group's kept flow is patched in place, not rebuilt.
func (d *Distributor) TopUp(i int, extra int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.corpus.TopUp(i, extra); err != nil {
		return err
	}
	if d.cache != nil && !d.cacheDirty && !d.cacheStale {
		return d.cache.TopUp(i, extra)
	}
	return nil
}

// Audit runs the geometric offline validator over the accumulated log with
// the given parallelism and returns its report together with the auditor
// (for gain/timings inspection). It is AuditContext with a background
// context.
func (d *Distributor) Audit(workers int) (core.Report, *core.Auditor, error) {
	return d.AuditContext(context.Background(), workers)
}

// AuditContext is Audit under a context: log replay, tree division, and
// the per-group equation walks all observe ctx. On deadline expiry the
// verified-so-far report and auditor are returned together with an error
// matching drmerr.ErrAuditIncomplete; a cancellation during preparation
// returns a KindCancelled error and no auditor.
func (d *Distributor) AuditContext(ctx context.Context, workers int) (core.Report, *core.Auditor, error) {
	start := time.Now()
	defer M.AuditSeconds.ObserveSince(start)
	ctx, asp := trace.Start(ctx, "engine.audit")
	rep, aud, err := d.auditContext(ctx, workers)
	if asp != nil {
		asp.SetAttr("distributor", d.name)
		asp.SetInt("workers", int64(workers))
		if err != nil && !errors.Is(err, drmerr.ErrAuditIncomplete) {
			asp.Fail(err)
		}
		asp.End()
	}
	return rep, aud, err
}

func (d *Distributor) auditContext(ctx context.Context, workers int) (core.Report, *core.Auditor, error) {
	aud, err := core.NewAuditorContext(ctx, d.corpus, d.log)
	if err != nil {
		return core.Report{}, nil, err
	}
	if workers > 1 {
		aud.Workers = workers
	}
	rep, err := aud.AuditContext(ctx)
	if err != nil && !errors.Is(err, drmerr.ErrAuditIncomplete) {
		return core.Report{}, nil, err
	}
	M.Audits.Inc()
	if err == nil {
		if verr := d.verifyCache(ctx, aud); verr != nil {
			return rep, aud, verr
		}
	}
	return rep, aud, err
}

// crossCheckSample bounds how many observed sets a completed audit
// re-derives headroom for when cross-checking the cache, and
// crossCheckMaxGroup skips the re-derivation for groups big enough that
// the 2^{N_k} recomputation would dominate the audit itself.
const (
	crossCheckSample   = 8
	crossCheckMaxGroup = 16
)

// verifyCache is the audit-as-verifier inversion: with admission served
// from the headroom cache, a completed audit's job includes proving the
// cache still matches the log it no longer replays per issuance. Two
// checks run: a structural pass (cache.Verify rebuilds the cache from
// the log, diffs counts, and checks the kept flow is feasible and
// maximum) and a semantic sample (the audit's own divided trees
// recompute headroom for a few observed sets and compare against the
// cached answers). Divergence surfaces as a KindHeadroomDivergence error
// and increments drm_headroom_divergence_total. Skipped — not an error —
// while admissions are in flight or the cache is out of date with the
// corpus.
func (d *Distributor) verifyCache(ctx context.Context, aud *core.Auditor) error {
	d.mu.Lock()
	cache := d.cache
	fresh := cache != nil && !d.cacheDirty && !d.cacheStale
	d.mu.Unlock()
	if !fresh {
		return nil
	}
	res, err := cache.Verify(ctx, d.log)
	if err != nil || res.Skipped {
		return err
	}
	for _, set := range cache.SampleSets(crossCheckSample) {
		if k := aud.Grouping().GroupOf(set.Min()); k >= 0 &&
			aud.Grouping().Groups[k].Size > crossCheckMaxGroup {
			continue
		}
		want, err := aud.Headroom(set)
		if err != nil {
			return err
		}
		got, err := cache.Headroom(set)
		if err != nil {
			return err
		}
		if got != want {
			headroom.M.Divergence.Inc()
			return drmerr.New(drmerr.KindHeadroomDivergence, "engine.audit",
				"engine: cached headroom %d for %v, audit recomputed %d", got, set, want)
		}
	}
	return nil
}

// Network is a directory of distributors keyed by (name, content,
// permission). It lets the owner route redistribution grants and examples
// read like the paper's multi-party scenarios.
type Network struct {
	schema       *geometry.Schema
	mode         Mode
	distributors map[string]*Distributor
}

// NewNetwork creates an empty network whose distributors share a schema
// and validation mode.
func NewNetwork(schema *geometry.Schema, mode Mode) *Network {
	return &Network{schema: schema, mode: mode, distributors: make(map[string]*Distributor)}
}

// key builds the directory key for one corpus.
func key(name, content string, perm license.Permission) string {
	return name + "\x00" + content + "\x00" + string(perm)
}

// Grant delivers a redistribution license to the named distributor,
// creating its (content, permission) corpus on first use.
func (n *Network) Grant(distributor string, l *license.License) (*Distributor, error) {
	k := key(distributor, l.Content, l.Permission)
	d, ok := n.distributors[k]
	if !ok {
		d = NewDistributor(distributor, n.schema, n.mode, logstore.NewMem(0))
		n.distributors[k] = d
	}
	if _, err := d.AddRedistribution(l); err != nil {
		return nil, err
	}
	return d, nil
}

// Distributor looks up the corpus of (name, content, perm), or nil.
func (n *Network) Distributor(name, content string, perm license.Permission) *Distributor {
	return n.distributors[key(name, content, perm)]
}

// Distributors returns all registered corpora in unspecified order.
func (n *Network) Distributors() []*Distributor {
	out := make([]*Distributor, 0, len(n.distributors))
	for _, d := range n.distributors {
		out = append(out, d)
	}
	return out
}

// AuditAll audits every corpus in the network, returning reports keyed the
// same way lookups are. It is AuditAllContext with a background context.
func (n *Network) AuditAll(workers int) (map[*Distributor]core.Report, error) {
	return n.AuditAllContext(context.Background(), workers)
}

// AuditAllContext audits every corpus in the network under ctx. A
// deadline that expires mid-sweep returns the reports gathered so far
// (including the partially verified one, with its Completeness filled in)
// and an error matching drmerr.ErrAuditIncomplete.
func (n *Network) AuditAllContext(ctx context.Context, workers int) (map[*Distributor]core.Report, error) {
	out := make(map[*Distributor]core.Report, len(n.distributors))
	for _, d := range n.distributors {
		rep, _, err := d.AuditContext(ctx, workers)
		if errors.Is(err, drmerr.ErrAuditIncomplete) {
			out[d] = rep
			return out, fmt.Errorf("engine: auditing %s: %w", d.Name(), err)
		}
		if err != nil {
			if drmerr.IsCancellation(err) {
				return out, fmt.Errorf("engine: auditing %s: %w", d.Name(), err)
			}
			return nil, fmt.Errorf("engine: auditing %s: %w", d.Name(), err)
		}
		out[d] = rep
	}
	return out, nil
}
