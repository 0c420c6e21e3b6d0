package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/geometry"
	"repro/internal/headroom"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/workload"
)

// hookStore is a Mem whose next ForEach, once a hook is armed, runs the
// hook after replaying: the moment an audit's replay has read the log.
type hookStore struct {
	*logstore.Mem
	hook atomic.Pointer[func()]
}

func (s *hookStore) ForEach(fn func(logstore.Record) error) error {
	err := s.Mem.ForEach(fn)
	if h := s.hook.Swap(nil); h != nil {
		(*h)()
	}
	return err
}

// auditResult is one audit's verdict, passed between goroutines.
type auditResult struct {
	ok  bool
	err error
}

// TestFollowerAuditBetweenLandAndFold lands a window on a mirror and,
// before the fold, starts an audit. The audit must wait for the fold;
// it then finds the window in the log and in the cache alike, and is
// clean.
func TestFollowerAuditBetweenLandAndFold(t *testing.T) {
	ex, leader := ex1Distributor(t, ModeOnline)
	follower, flog := ex1Replica(t, ex)
	ctx := context.Background()
	if _, err := leader.IssueContext(ctx, license.Usage, ex.Usage1.Rect, 600); err != nil {
		t.Fatal(err)
	}
	recs := leader.log.(*logstore.Mem).Records()
	audited := make(chan auditResult, 1)
	land := func() ([]logstore.Record, error) {
		got, err := landing(flog, recs)()
		go func() {
			rep, _, err := follower.AuditContext(ctx, 1)
			audited <- auditResult{rep.OK(), err}
		}()
		// Give the audit every chance to run before the fold.
		select {
		case r := <-audited:
			t.Errorf("the audit ran between the land and the fold: ok=%v err=%v", r.ok, r.err)
			audited <- r
		case <-time.After(50 * time.Millisecond):
		}
		return got, err
	}
	if _, err := follower.ApplyReplicated(ctx, land); err != nil {
		t.Fatal(err)
	}
	if r := <-audited; r.err != nil || !r.ok {
		t.Fatalf("audit after the fold: ok=%v err=%v", r.ok, r.err)
	}
}

// TestFollowerWindowDuringAuditWalk lands and folds a window while an
// audit runs, starting the moment the audit's replay has read the log.
// The audit must judge one state — its replay, the cache's Verify and
// the cached headrooms it samples — and come back clean; so must the
// next audit, which sees the window, and the mirror ends level with its
// leader.
func TestFollowerWindowDuringAuditWalk(t *testing.T) {
	ex, leader := ex1Distributor(t, ModeOnline)
	flog := &hookStore{Mem: logstore.NewMem(0)}
	follower := replicaOver(t, ex, flog)
	ctx := context.Background()
	sent := 0
	window := func(count int64) []logstore.Record {
		t.Helper()
		if _, err := leader.IssueContext(ctx, license.Usage, ex.Usage1.Rect, count); err != nil {
			t.Fatal(err)
		}
		recs := leader.log.(*logstore.Mem).Records()[sent:]
		sent += len(recs)
		return recs
	}
	if _, err := follower.ApplyReplicated(ctx, landing(flog, window(700))); err != nil {
		t.Fatal(err)
	}
	second := window(600)
	applied := make(chan error, 1)
	hook := func() {
		go func() {
			_, err := follower.ApplyReplicated(ctx, landing(flog, second))
			applied <- err
		}()
		// Let the window land and fold now, unless something holds it off.
		select {
		case err := <-applied:
			applied <- err
		case <-time.After(50 * time.Millisecond):
		}
	}
	flog.hook.Store(&hook)
	if rep, _, err := follower.AuditContext(ctx, 1); err != nil || !rep.OK() {
		t.Fatalf("audit with a window landing during it: ok=%v err=%v", rep.OK(), err)
	}
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if rep, _, err := follower.AuditContext(ctx, 1); err != nil || !rep.OK() {
		t.Fatalf("audit after the window: ok=%v err=%v", rep.OK(), err)
	}
	set := leader.BelongsTo(ex.Usage1.Rect)
	lr, err := leader.HeadroomContext(ctx, set)
	if err != nil {
		t.Fatal(err)
	}
	if fr, err := follower.HeadroomContext(ctx, set); err != nil || fr != lr {
		t.Fatalf("mirror headroom %d (%v), leader %d", fr, err, lr)
	}
}

// TestFollowerConcurrentWindowsAndAudits applies 240 shipped windows —
// issues and revokes — to a read-only mirror on one goroutine while
// another audits the mirror and reads its headroom, summaries and
// stats. Every audit must be clean, drm_headroom_divergence_total must
// stay 0, and the mirror must end level with its leader. Run it with
// -race.
func TestFollowerConcurrentWindowsAndAudits(t *testing.T) {
	saved := headroom.M
	headroom.Instrument(obs.NewRegistry())
	defer func() { headroom.M = saved }()
	ctx := context.Background()
	w := workload.MustGenerate(workload.Config{
		N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 1,
		AggregateLo: 400, AggregateHi: 900, Seed: 5,
	})
	build := func(name string, log logstore.Store) *Distributor {
		d := NewDistributor(name, w.Schema, ModeOnline, log)
		for _, l := range w.Corpus.Licenses() {
			cp := *l
			if _, err := d.AddRedistribution(&cp); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.WarmHeadroom(ctx); err != nil {
			t.Fatal(err)
		}
		return d
	}
	llog, flog := logstore.NewMem(0), logstore.NewMem(0)
	leader, follower := build("leader", llog), build("follower", flog)
	follower.SetReadOnly(true)

	// The leader writes every window up front: issues, some refused, and
	// revokes of what it issued, so budgets keep freeing up.
	rng := rand.New(rand.NewSource(5))
	var windows [][]logstore.Record
	var issued []geometry.Rect
	for sent := 0; len(windows) < 240; {
		for range 1 + rng.Intn(6) {
			if rng.Intn(4) > 0 || len(issued) == 0 {
				rect := subRect(rng, w.Corpus.License(rng.Intn(w.Corpus.Len())).Rect)
				if _, err := leader.IssueContext(ctx, license.Usage, rect, int64(1+rng.Intn(60))); err == nil {
					issued = append(issued, rect)
				}
				continue
			}
			rect := issued[rng.Intn(len(issued))]
			if net := llog.LedgerSnapshot().Net(leader.BelongsTo(rect)); net > 0 {
				if _, err := leader.RevokeContext(ctx, rect, 1+rng.Int63n(net)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if recs := llog.Records()[sent:]; len(recs) > 0 {
			sent += len(recs)
			windows = append(windows, recs)
		}
	}
	var sets []bitset.Mask
	for _, l := range w.Corpus.Licenses() {
		sets = append(sets, leader.BelongsTo(l.Rect))
	}

	// audited signals a finished audit; stopped closes when the auditor
	// returns.
	done, stopped := make(chan struct{}), make(chan struct{})
	audited := make(chan struct{}, 1)
	audits := 0
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			default:
			}
			rep, _, err := follower.AuditContext(ctx, 1)
			if err != nil || !rep.OK() {
				t.Errorf("audit %d while windows land: ok=%v err=%v", audits, rep.OK(), err)
				return
			}
			audits++
			select {
			case audited <- struct{}{}:
			default:
			}
			for _, set := range sets {
				if _, err := follower.HeadroomContext(ctx, set); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := follower.HeadroomSummaries(ctx); err != nil {
				t.Error(err)
				return
			}
			follower.Stats()
		}
	}()
	for i, recs := range windows {
		if _, err := follower.ApplyReplicated(ctx, landing(flog, recs)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 { // let another audit finish among the windows
			select {
			case <-audited:
			case <-stopped:
			}
		}
	}
	close(done)
	<-stopped
	t.Logf("%d windows, %d audits beside them", len(windows), audits)
	if audits == 0 {
		t.Fatal("no audit ran beside the windows")
	}
	if n := headroom.M.Divergence.Value(); n != 0 {
		t.Fatalf("drm_headroom_divergence_total = %d", n)
	}
	if follower.cacheStale {
		t.Fatal("the mirror's cache went stale")
	}
	if rep, _, err := follower.AuditContext(ctx, 1); err != nil || !rep.OK() {
		t.Fatalf("final audit: ok=%v err=%v", rep.OK(), err)
	}
	for _, set := range sets {
		lr, err := leader.HeadroomContext(ctx, set)
		if err != nil {
			t.Fatal(err)
		}
		if fr, err := follower.HeadroomContext(ctx, set); err != nil || fr != lr {
			t.Fatalf("mirror headroom(%v) = %d (%v), leader %d", set, fr, err, lr)
		}
	}
	if f, l := follower.Stats(), leader.Stats(); f.Issued != l.Issued || f.RevokedCounts != l.RevokedCounts {
		t.Fatalf("mirror stats %+v, leader %+v", f, l)
	}
}

// failStore is a Mem whose appends fail while fail is set, as a full
// disk or a failed fsync would.
type failStore struct {
	*logstore.Mem
	fail bool
}

func (s *failStore) Append(r logstore.Record) error {
	if s.fail {
		return errors.New("injected append failure")
	}
	return s.Mem.Append(r)
}

// TestFailedAppendLeavesCacheAsBuilt fails the log append behind an
// admission of an observed set, one of a set the log has never held,
// and a revoke. The cache must then be what a fresh build from the log
// derives: Verify is clean, every sampled headroom and every singleton's
// equals the fresh cache's, nothing went stale, and an audit is clean.
func TestFailedAppendLeavesCacheAsBuilt(t *testing.T) {
	ctx := context.Background()
	w := workload.MustGenerate(workload.Config{
		N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 1,
		AggregateLo: 400, AggregateHi: 900, Seed: 7,
	})
	log := &failStore{Mem: logstore.NewMem(0)}
	d := NewDistributor("d", w.Schema, ModeOnline, log)
	for _, l := range w.Corpus.Licenses() {
		cp := *l
		if _, err := d.AddRedistribution(&cp); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	var observed []geometry.Rect
	for len(observed) < 6 {
		rect := subRect(rng, w.Corpus.License(rng.Intn(w.Corpus.Len())).Rect)
		if _, err := d.IssueContext(ctx, license.Usage, rect, 20); err == nil {
			observed = append(observed, rect)
		}
	}
	fresh := observed[0]
	for log.LedgerSnapshot().Net(d.BelongsTo(fresh)) > 0 {
		fresh = subRect(rng, w.Corpus.License(rng.Intn(w.Corpus.Len())).Rect)
	}

	log.fail = true
	for _, rect := range []geometry.Rect{observed[1], fresh} {
		if _, err := d.IssueContext(ctx, license.Usage, rect, 5); err == nil {
			t.Fatalf("issue on %v over a failing log succeeded", rect)
		}
	}
	if _, err := d.RevokeContext(ctx, observed[2], 5); err == nil {
		t.Fatal("revoke over a failing log succeeded")
	}
	log.fail = false

	d.mu.Lock()
	if d.cacheStale {
		t.Fatal("a failed append left the cache stale")
	}
	if _, err := d.cache.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after the failed appends: %v", err)
	}
	built, err := headroom.Build(ctx, d.grouper.Grouping(), d.corpus.Aggregates(), log)
	if err != nil {
		t.Fatal(err)
	}
	sets := d.cache.SampleSets(0)
	for i := 0; i < d.corpus.Len(); i++ {
		sets = append(sets, bitset.MaskOf(i))
	}
	for _, set := range sets {
		got, err := d.cache.Headroom(set)
		want, werr := built.Headroom(set)
		if err != nil || werr != nil || got != want {
			t.Errorf("Headroom(%v) = %d (%v), a fresh build says %d (%v)", set, got, err, want, werr)
		}
	}
	d.mu.Unlock()
	if rep, _, err := d.Audit(1); err != nil || !rep.OK() {
		t.Fatalf("audit after the failed appends: ok=%v err=%v", rep.OK(), err)
	}
}
