// Replica support: a distributor serving a log-shipped WAL mirror runs
// read-only — audits, headroom queries, and stats stay live while every
// mutation is refused with a typed KindReadOnly error pointing writers
// at the leader — and keeps its derived state warm by landing each
// shipped window and applying its decoded records to the stats counters
// and the headroom cache in one step under its mutex, so promotion
// (SetReadOnly(false)) serves its first issuance with no warm-up replay.

package engine

import (
	"context"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/obs"
)

// SetReadOnly flips the distributor's replica gate: while set, Issue,
// Revoke, Transfer, and ExpireSweep refuse with KindReadOnly. Promotion
// clears it after the follower's fetch loop drains.
func (d *Distributor) SetReadOnly(ro bool) { d.readOnly.Store(ro) }

// ReadOnly reports whether the distributor refuses mutations.
func (d *Distributor) ReadOnly() bool { return d.readOnly.Load() }

// readOnlyErr is the shared mutation gate.
func (d *Distributor) readOnlyErr(op string) error {
	if !d.readOnly.Load() {
		return nil
	}
	return drmerr.New(drmerr.KindReadOnly, op,
		"engine: distributor %s is a read-only replica; send writes to the leader", d.name)
}

// ApplyReplicated runs land, which ingests one shipped window into the
// log and returns its decoded records, and folds them into the stats
// counters and any built, unstale headroom cache — both under the
// distributor's mutex, so no reader sees a window landed but not
// folded. A cache refusal (the mirror and the cache drifted) or a
// landing error (the window may have landed in part) marks the cache
// stale; the next query replays the authoritative log. It returns what
// land returned.
//
// The cache takes the window as a fold, the way Alg 1 merges records by
// belongs-to set: each run of consecutive issues is summed per set and
// each sum admitted once, and the run is flushed before any revoke,
// expire or transfer. This is exact. Credits only lower slacks, so
// within a run every intermediate state is dominated by the state at
// the run's end, which the leader reached by admitting every record: a
// summed Admit is refused only where a per-record Admit would be.
func (d *Distributor) ApplyReplicated(ctx context.Context, land func() ([]logstore.Record, error)) ([]logstore.Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	recs, err := land()
	if err != nil {
		d.markStale()
		return nil, err
	}
	d.tallyReplicated(recs)
	if d.cache == nil || d.cacheStale {
		return recs, nil
	}
	var run issueRun
	for _, rec := range recs {
		if rec.Kind == logstore.KindIssue {
			run.add(rec.Set, rec.Count)
			continue
		}
		if !d.admitRun(ctx, &run) || !d.applyReplicatedDebit(ctx, rec) {
			return recs, nil
		}
	}
	d.admitRun(ctx, &run)
	return recs, nil
}

// tallyReplicated adds a window's records to the stats counters, one
// atomic add per kind.
func (d *Distributor) tallyReplicated(recs []logstore.Record) {
	var n, counts [4]int64 // indexed by kind
	for _, rec := range recs {
		if rec.Kind.Valid() {
			n[rec.Kind]++
			counts[rec.Kind] += rec.Count
		}
	}
	add := func(k logstore.Kind, num, sum *atomic.Int64, mNum, mSum *obs.Counter) {
		if n[k] > 0 {
			num.Add(n[k])
			sum.Add(counts[k])
			mNum.Add(n[k])
			mSum.Add(counts[k])
		}
	}
	add(logstore.KindIssue, &d.issued, &d.issuedCounts, M.Issued, M.IssuedCounts)
	add(logstore.KindRevoke, &d.revoked, &d.revokedCounts, M.Revoked, M.RevokedCounts)
	add(logstore.KindExpire, &d.expired, &d.expiredCounts, M.Expired, M.ExpiredCounts)
	add(logstore.KindTransfer, &d.transferred, &d.transferredCounts, M.Transferred, M.TransferredCounts)
}

// issueRun sums a run of consecutive issues per set, keeping the sets in
// the order they first appear.
type issueRun struct {
	at   map[bitset.Mask]int // index into sums
	sums []setSum
}

type setSum struct {
	set   bitset.Mask
	count int64
}

func (r *issueRun) add(set bitset.Mask, count int64) {
	if i, ok := r.at[set]; ok {
		r.sums[i].count += count
		return
	}
	if r.at == nil {
		r.at = make(map[bitset.Mask]int)
	}
	r.at[set] = len(r.sums)
	r.sums = append(r.sums, setSum{set, count})
}

// admitRun admits each of the run's sums once and empties the run. It
// reports false, with the cache marked stale, if the cache refused one:
// the leader admitted these records, so a refusal means the cache
// drifted from the mirror. Caller holds d.mu.
func (d *Distributor) admitRun(ctx context.Context, run *issueRun) bool {
	defer func() {
		clear(run.at)
		run.sums = run.sums[:0]
	}()
	for _, s := range run.sums {
		_, ok, err := d.cache.Admit(ctx, s.set, s.count)
		if err != nil || !ok {
			d.markStale()
			return false
		}
	}
	return true
}

// applyReplicatedDebit mirrors one shipped revoke, expire or transfer
// into the cache, exactly as the leader's online path did when it
// logged it. It reports false, with the cache marked stale, on a
// refusal. Caller holds d.mu.
func (d *Distributor) applyReplicatedDebit(ctx context.Context, rec logstore.Record) bool {
	var err error
	if rec.Kind == logstore.KindTransfer {
		err = d.cache.ApplyTransfer(rec.Set, rec.Count)
	} else {
		err = d.cache.Credit(ctx, rec.Set, rec.Count)
	}
	if err != nil {
		d.markStale()
		return false
	}
	return true
}
