// Lifecycle operations: the issuance log generalised into a typed
// ledger lets a distributor take counts back out of circulation (revoke),
// age them out on a schedule (expire), and re-home them without changing
// the aggregate picture (transfer). Every operation is WAL-durable —
// appended through the same logstore.Store as issuances, so the store's
// append-time soundness check (cumulative debits never exceed cumulative
// credits per belongs-to set) is the final arbiter — and, in ModeOnline,
// mirrored into the headroom cache in place so freed counts become
// admissible immediately without a log replay.
//
// Each operation runs under the distributor's mutex, like issuance: the
// record is appended durably, then the cache is credited (or its
// transfer total raised). An append failure leaves the cache untouched;
// a cache failure after a durable append marks the cache stale (next use
// replays the log) and surfaces as divergence.

package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/geometry"
	"repro/internal/logstore"
	"repro/internal/trace"
)

// ErrTransferCapExceeded marks a transfer that would push a set's
// cumulative transfer total past the distributor's configured cap.
var ErrTransferCapExceeded = drmerr.Sentinel(drmerr.KindViolation,
	"engine: transfer would exceed the distributor's transfer cap")

// SetTransferCap bounds the cumulative per-set transfer total (0 =
// unlimited, the default). The cap is engine policy layered over the
// ledger: it compares against totals the ledger preserves across
// compaction, and applies only where the cache is consulted (ModeOnline).
func (d *Distributor) SetTransferCap(cap int64) { d.transferCap.Store(cap) }

// TransferCap returns the configured cumulative transfer cap.
func (d *Distributor) TransferCap() int64 { return d.transferCap.Load() }

// Revoke takes count permissions for rect's belongs-to set back out of
// circulation. It is RevokeContext with a background context.
func (d *Distributor) Revoke(rect geometry.Rect, count int64) (bitset.Mask, error) {
	return d.RevokeContext(context.Background(), rect, count)
}

// RevokeContext appends a revoke record for rect's belongs-to set. The
// store refuses (ErrLedgerUnsound, 409) a revoke that would drive the
// set's net count negative. In ModeOnline the freed counts are credited
// back into the headroom cache in place, so they are immediately
// admissible to new issuances.
func (d *Distributor) RevokeContext(ctx context.Context, rect geometry.Rect, count int64) (bitset.Mask, error) {
	start := time.Now()
	ctx, sp := trace.Start(ctx, "engine.revoke")
	set, err := d.debitContext(ctx, logstore.KindRevoke, rect, count, 0)
	if sp != nil {
		sp.SetAttr("distributor", d.name)
		sp.SetInt("count", count)
		sp.Fail(err)
		sp.End()
	}
	if err == nil {
		d.revoked.Add(1)
		d.revokedCounts.Add(count)
		M.Revoked.Inc()
		M.RevokedCounts.Add(count)
		if M.LifecycleSeconds != nil {
			M.LifecycleSeconds.ObserveSince(start)
		}
	}
	return set, err
}

// debitContext is the shared revoke/expire path: instance-resolve the
// set (revoke only — expire records arrive with their set precomputed
// from the ledger), append the debit durably, then credit the cache.
func (d *Distributor) debitContext(ctx context.Context, kind logstore.Kind, rect geometry.Rect, count, expiry int64) (bitset.Mask, error) {
	if err := ctx.Err(); err != nil {
		return 0, drmerr.Wrap(drmerr.KindCancelled, "engine.lifecycle", err)
	}
	if err := d.readOnlyErr("engine.lifecycle"); err != nil {
		return 0, err
	}
	if d.corpus.Len() == 0 {
		return 0, drmerr.New(drmerr.KindInstanceInvalid, "engine.lifecycle",
			"engine: distributor %s holds no redistribution licenses", d.name)
	}
	if count <= 0 {
		return 0, drmerr.New(drmerr.KindInvalidInput, "engine.lifecycle",
			"engine: non-positive count %d", count)
	}
	set := d.BelongsTo(rect)
	if set.Empty() {
		return 0, drmerr.New(drmerr.KindInstanceInvalid, "engine.lifecycle",
			"engine: %s not contained in any redistribution license", rect)
	}
	rec := logstore.Record{Kind: kind, Set: set, Count: count, Meta: logstore.Meta{Expiry: expiry}}
	d.mu.Lock()
	defer d.mu.Unlock()
	return set, d.appendDebitLocked(ctx, rec)
}

// appendDebitLocked durably appends one revoke/expire record and credits
// the headroom cache. Caller has validated rec's fields and holds d.mu.
func (d *Distributor) appendDebitLocked(ctx context.Context, rec logstore.Record) error {
	if d.mode != ModeOnline {
		if err := logstore.AppendContext(ctx, d.log, rec); err != nil {
			return err
		}
		d.markStale()
		return nil
	}
	cache, err := d.cacheLocked(ctx) // built before the record exists
	if err != nil {
		return err
	}
	if err := logstore.AppendContext(ctx, d.log, rec); err != nil {
		return err
	}
	if err := cache.Credit(ctx, rec.Set, rec.Count); err != nil {
		// The debit is durable; the cache refused to mirror it, which
		// means it had drifted from the log. Replay on next use and
		// surface the divergence.
		d.markStale()
		return err
	}
	return nil
}

// Transfer re-homes count permissions for rect's belongs-to set to
// another party. It is TransferContext with a background context.
func (d *Distributor) Transfer(rect geometry.Rect, count int64) (bitset.Mask, error) {
	return d.TransferContext(context.Background(), rect, count)
}

// TransferContext appends a transfer record for rect's belongs-to set.
// Transfers are aggregate-neutral — they change who holds permissions,
// not how many are outstanding — so the net counts the audit validates
// are untouched. In ModeOnline two policy checks gate the append: the
// transfer must not exceed the set's current net outstanding count, and
// must not push the set's cumulative transfer total past the configured
// cap (ErrTransferCapExceeded). In ModeOffline transfers are only
// logged, matching the paper's operating point where policy is audited
// in batch.
func (d *Distributor) TransferContext(ctx context.Context, rect geometry.Rect, count int64) (bitset.Mask, error) {
	start := time.Now()
	ctx, sp := trace.Start(ctx, "engine.transfer")
	set, err := d.transferContext(ctx, rect, count)
	if sp != nil {
		sp.SetAttr("distributor", d.name)
		sp.SetInt("count", count)
		sp.Fail(err)
		sp.End()
	}
	if err == nil {
		d.transferred.Add(1)
		d.transferredCounts.Add(count)
		M.Transferred.Inc()
		M.TransferredCounts.Add(count)
		if M.LifecycleSeconds != nil {
			M.LifecycleSeconds.ObserveSince(start)
		}
	}
	return set, err
}

func (d *Distributor) transferContext(ctx context.Context, rect geometry.Rect, count int64) (bitset.Mask, error) {
	if err := ctx.Err(); err != nil {
		return 0, drmerr.Wrap(drmerr.KindCancelled, "engine.transfer", err)
	}
	if err := d.readOnlyErr("engine.transfer"); err != nil {
		return 0, err
	}
	if d.corpus.Len() == 0 {
		return 0, drmerr.New(drmerr.KindInstanceInvalid, "engine.transfer",
			"engine: distributor %s holds no redistribution licenses", d.name)
	}
	if count <= 0 {
		return 0, drmerr.New(drmerr.KindInvalidInput, "engine.transfer",
			"engine: non-positive count %d", count)
	}
	set := d.BelongsTo(rect)
	if set.Empty() {
		return 0, drmerr.New(drmerr.KindInstanceInvalid, "engine.transfer",
			"engine: %s not contained in any redistribution license", rect)
	}
	rec := logstore.Record{Kind: logstore.KindTransfer, Set: set, Count: count}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mode != ModeOnline {
		if err := logstore.AppendContext(ctx, d.log, rec); err != nil {
			return 0, err
		}
		d.markStale()
		return set, nil
	}
	cache, err := d.cacheLocked(ctx)
	if err != nil {
		return 0, err
	}
	net, err := cache.NetCount(set)
	if err != nil {
		return 0, err
	}
	if count > net {
		return 0, drmerr.New(drmerr.KindViolation, "engine.transfer",
			"engine: transfer of %d exceeds the %d outstanding for %v", count, net, set)
	}
	if cap := d.transferCap.Load(); cap > 0 {
		cur, err := cache.Transferred(set)
		if err != nil {
			return 0, err
		}
		if cur+count > cap {
			d.rejectedAggregate.Add(1)
			M.TransferRejected.Inc()
			return 0, fmt.Errorf("%w: %d already transferred for %v, cap %d",
				ErrTransferCapExceeded, cur, set, cap)
		}
	}
	if err := logstore.AppendContext(ctx, d.log, rec); err != nil {
		return 0, err
	}
	if err := cache.ApplyTransfer(set, count); err != nil {
		d.markStale()
		return 0, err
	}
	return set, nil
}

// SweepResult summarises one expiry sweep.
type SweepResult struct {
	// Records is the number of expire records appended; Counts sums the
	// permission counts they debited.
	Records int   `json:"records"`
	Counts  int64 `json:"counts"`
}

// ExpireSweep debits every TTL bucket due at or before now: it reads the
// store's ledger snapshot, derives the due schedule (earliest-first,
// clamped by net outstanding counts so over-revoked buckets never expire
// below zero), and appends one expire record per due bucket. The whole
// sweep holds the distributor's mutex, so the schedule it read is still
// the ledger's when it appends. It is the background sweeper's tick and
// the /v1/expire handler's body.
func (d *Distributor) ExpireSweep(ctx context.Context, now time.Time) (SweepResult, error) {
	ctx, sp := trace.Start(ctx, "engine.expire_sweep")
	res, err := d.expireSweep(ctx, now)
	if sp != nil {
		sp.SetAttr("distributor", d.name)
		sp.SetInt("records", int64(res.Records))
		sp.SetInt("counts", res.Counts)
		sp.Fail(err)
		sp.End()
	}
	M.Sweeps.Inc()
	return res, err
}

func (d *Distributor) expireSweep(ctx context.Context, now time.Time) (SweepResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return SweepResult{}, drmerr.Wrap(drmerr.KindCancelled, "engine.expire", err)
	}
	if err := d.readOnlyErr("engine.expire"); err != nil {
		return SweepResult{}, err
	}
	lr, ok := d.log.(logstore.LedgerReader)
	if !ok {
		return SweepResult{}, drmerr.New(drmerr.KindInvalidInput, "engine.expire",
			"engine: log store %T exposes no ledger; expiry needs one", d.log)
	}
	due := lr.LedgerSnapshot().Due(now.Unix())
	var res SweepResult
	for _, rec := range due {
		if err := ctx.Err(); err != nil {
			return res, drmerr.Wrap(drmerr.KindCancelled, "engine.expire", err)
		}
		if err := d.appendDebitLocked(ctx, rec); err != nil {
			return res, err
		}
		res.Records++
		res.Counts += rec.Count
		d.expired.Add(1)
		d.expiredCounts.Add(rec.Count)
		M.Expired.Inc()
		M.ExpiredCounts.Add(rec.Count)
	}
	return res, nil
}
