package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/drmerr"
	"repro/internal/license"
	"repro/internal/logstore"
)

// ex1Replica builds a follower-shaped distributor: the same Example 1
// corpus over its own log store, warmed and flagged read-only.
func ex1Replica(t *testing.T, ex *license.Example1) (*Distributor, logstore.Store) {
	t.Helper()
	log := logstore.NewMem(0)
	return replicaOver(t, ex, log), log
}

// replicaOver is ex1Replica over a given log store.
func replicaOver(t *testing.T, ex *license.Example1, log logstore.Store) *Distributor {
	t.Helper()
	d := NewDistributor("D1-replica", ex.Schema, ModeOnline, log)
	for i := 0; i < ex.Corpus.Len(); i++ {
		l := ex.Corpus.License(i)
		cp := *l
		if _, err := d.AddRedistribution(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WarmHeadroom(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.SetReadOnly(true)
	return d
}

// landing returns a land step that appends recs to log, as
// wal.IngestFrames does for a shipped window.
func landing(log logstore.Store, recs []logstore.Record) func() ([]logstore.Record, error) {
	return func() ([]logstore.Record, error) {
		for _, r := range recs {
			if err := log.Append(r); err != nil {
				return nil, err
			}
		}
		return recs, nil
	}
}

// TestReadOnlyRefusesMutations checks every mutation path is gated with
// the typed replica error while reads keep working, and that promotion
// (clearing the gate) restores writes without a rebuild.
func TestReadOnlyRefusesMutations(t *testing.T) {
	d, rect, set, room0 := lifecycleFixture(t, ModeOnline)
	ctx := context.Background()
	d.SetReadOnly(true)
	if _, err := d.IssueContext(ctx, license.Usage, rect, 10); !errors.Is(err, drmerr.ErrReadOnly) {
		t.Fatalf("issue on replica: err = %v, want read_only", err)
	}
	if _, err := d.RevokeContext(ctx, rect, 1); drmerr.KindOf(err) != drmerr.KindReadOnly {
		t.Fatalf("revoke on replica: err = %v, want read_only", err)
	}
	if _, err := d.TransferContext(ctx, rect, 1); drmerr.KindOf(err) != drmerr.KindReadOnly {
		t.Fatalf("transfer on replica: err = %v, want read_only", err)
	}
	if _, err := d.ExpireSweep(ctx, time.Now()); drmerr.KindOf(err) != drmerr.KindReadOnly {
		t.Fatalf("sweep on replica: err = %v, want read_only", err)
	}
	// Reads stay live.
	if room, err := d.HeadroomContext(ctx, set); err != nil || room != room0 {
		t.Fatalf("headroom on replica = %d (%v), want %d", room, err, room0)
	}
	if rep, _, err := d.Audit(1); err != nil || !rep.OK() {
		t.Fatalf("audit on replica: ok=%v err=%v", rep.OK(), err)
	}
	// Promotion: the gate clears and the first write needs no warm-up.
	d.SetReadOnly(false)
	if _, err := d.IssueContext(ctx, license.Usage, rect, 10); err != nil {
		t.Fatalf("issue after promotion: %v", err)
	}
}

// TestApplyReplicatedKeepsStateWarm drives a leader and a mirror side by
// side: every leader mutation is appended to the mirror's log (what
// wal.IngestFrames does in production) and folded in via
// ApplyReplicated. The mirror's cached headroom, stats, and audit must
// match the leader's at every step without ever replaying the log.
func TestApplyReplicatedKeepsStateWarm(t *testing.T) {
	ex, leader := ex1Distributor(t, ModeOnline)
	leader.SetTransferCap(0)
	follower, flog := ex1Replica(t, ex)
	ctx := context.Background()
	rect := ex.Usage1.Rect
	set := leader.BelongsTo(rect)

	replicate := func(recs ...logstore.Record) {
		t.Helper()
		if _, err := follower.ApplyReplicated(ctx, landing(flog, recs)); err != nil {
			t.Fatal(err)
		}
	}
	checkParity := func(stage string) {
		t.Helper()
		lr, err := leader.HeadroomContext(ctx, set)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := follower.HeadroomContext(ctx, set)
		if err != nil {
			t.Fatal(err)
		}
		if lr != fr {
			t.Fatalf("%s: follower headroom %d, leader %d", stage, fr, lr)
		}
		if ls, fs := leader.Stats(), follower.Stats(); ls != fs {
			t.Fatalf("%s: follower stats %+v, leader %+v", stage, fs, ls)
		}
	}

	expiry := time.Now().Add(time.Hour).Unix()
	if _, err := leader.IssueContext(ctx, license.Usage, rect, 600); err != nil {
		t.Fatal(err)
	}
	replicate(logstore.Record{Set: set, Count: 600})
	checkParity("after issue")

	if _, err := leader.IssueTTLContext(ctx, license.Usage, rect, 50, expiry); err != nil {
		t.Fatal(err)
	}
	replicate(logstore.Record{Kind: logstore.KindIssue, Set: set, Count: 50, Meta: logstore.Meta{Expiry: expiry}})
	checkParity("after ttl issue")

	if _, err := leader.RevokeContext(ctx, rect, 250); err != nil {
		t.Fatal(err)
	}
	replicate(logstore.Record{Kind: logstore.KindRevoke, Set: set, Count: 250})
	checkParity("after revoke")

	if _, err := leader.TransferContext(ctx, rect, 100); err != nil {
		t.Fatal(err)
	}
	replicate(logstore.Record{Kind: logstore.KindTransfer, Set: set, Count: 100})
	checkParity("after transfer")

	// The audit's verifier pass proves the incrementally maintained cache
	// still equals the log-derived truth on the mirror.
	if rep, _, err := follower.Audit(1); err != nil || !rep.OK() {
		t.Fatalf("mirror audit: ok=%v err=%v", rep.OK(), err)
	}
	// Promote and issue the counts freed by the revoke: cache continuity.
	follower.SetReadOnly(false)
	if _, err := follower.IssueContext(ctx, license.Usage, rect, 200); err != nil {
		t.Fatalf("post-promotion issue: %v", err)
	}
}
