package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/headroom"
	"repro/internal/interval"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/workload"
)

// applyPerRecord is the reference ApplyReplicated folds against: every
// record counted, and mirrored into the cache, on its own — the way the
// leader's online path admitted it.
func applyPerRecord(ctx context.Context, d *Distributor, recs []logstore.Record) {
	for _, rec := range recs {
		switch rec.Kind {
		case logstore.KindIssue:
			d.issued.Add(1)
			d.issuedCounts.Add(rec.Count)
		case logstore.KindRevoke:
			d.revoked.Add(1)
			d.revokedCounts.Add(rec.Count)
		case logstore.KindExpire:
			d.expired.Add(1)
			d.expiredCounts.Add(rec.Count)
		case logstore.KindTransfer:
			d.transferred.Add(1)
			d.transferredCounts.Add(rec.Count)
		}
		d.mu.Lock()
		cache := d.cache
		fresh := cache != nil && !d.cacheDirty && !d.cacheStale
		d.mu.Unlock()
		if !fresh {
			continue
		}
		var err error
		ok := true
		switch rec.Kind {
		case logstore.KindIssue:
			if _, ok, err = cache.Admit(ctx, rec.Set, rec.Count); ok {
				cache.Confirm()
			}
		case logstore.KindTransfer:
			err = cache.ApplyTransfer(rec.Set, rec.Count)
		default:
			err = cache.Credit(ctx, rec.Set, rec.Count)
		}
		if err != nil || !ok {
			d.markStale()
		}
	}
}

// subRect samples a rectangle inside r, so its belongs-to set holds r's
// license and whichever others overlap that corner of it.
func subRect(rng *rand.Rand, r geometry.Rect) geometry.Rect {
	vals := make([]geometry.Value, r.Schema().Dims())
	for d := range vals {
		iv := r.Value(d).Interval()
		lo := iv.Lo + rng.Int63n(iv.Hi-iv.Lo+1)
		hi := lo + rng.Int63n((iv.Hi-lo)/4+1)
		vals[d] = geometry.IntervalValue(interval.New(lo, hi))
	}
	return geometry.MustRect(r.Schema(), vals...)
}

// TestReplicatedFoldMatchesPerRecord: a follower that applies each
// shipped window through ApplyReplicated — which sums runs of issues per
// set and admits each sum once — must hold exactly the state of one
// that applies the same window record by record. A leader distributor
// produces the windows through its online path (plain and TTL issues,
// some refused; revokes, transfers and expiry sweeps), so every window
// is sound. After every window the two followers' headroom summaries
// and stats must match, their headroom must equal the leader's, and
// neither cache may ever go stale or rebuild.
func TestReplicatedFoldMatchesPerRecord(t *testing.T) {
	saved := headroom.M
	headroom.Instrument(obs.NewRegistry())
	defer func() { headroom.M = saved }()
	ctx := context.Background()
	for _, seed := range []int64{3, 11, 29} {
		w := workload.MustGenerate(workload.Config{
			N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 1,
			AggregateLo: 400, AggregateHi: 900, Seed: seed,
		})
		build := func(name string) *Distributor {
			d := NewDistributor(name, w.Schema, ModeOnline, logstore.NewMem(0))
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
		leader, fold, ref := build("leader"), build("fold"), build("ref")
		fold.SetReadOnly(true)
		ref.SetReadOnly(true)
		llog := leader.log.(*logstore.Mem)
		rng := rand.New(rand.NewSource(seed))
		now := int64(1_000_000) // logical clock for TTLs and sweeps
		var issued []geometry.Rect
		var kinds [4]int
		var refused, mixed int
		sent := 0
		rebuilds := headroom.M.Rebuilds.Value()
		for win := 0; win < 80; win++ {
			for range 1 + rng.Intn(40) {
				rect := subRect(rng, w.Corpus.License(rng.Intn(w.Corpus.Len())).Rect)
				switch op := rng.Intn(20); {
				case op < 12 || len(issued) == 0: // issue, a third with a TTL
					var err error
					if count := int64(1 + rng.Intn(60)); rng.Intn(3) == 0 {
						_, err = leader.IssueTTLContext(ctx, license.Usage, rect, count, now+int64(1+rng.Intn(40)))
					} else {
						_, err = leader.IssueContext(ctx, license.Usage, rect, count)
					}
					if err == nil {
						issued = append(issued, rect)
					} else {
						refused++
					}
				case op < 17: // revoke or transfer part of an issued set's net
					rect = issued[rng.Intn(len(issued))]
					net := llog.LedgerSnapshot().Net(leader.BelongsTo(rect))
					if net == 0 {
						continue
					}
					count := 1 + rng.Int63n(min(net, 25))
					var err error
					if op < 15 {
						_, err = leader.RevokeContext(ctx, rect, count)
					} else {
						_, err = leader.TransferContext(ctx, rect, count)
					}
					if err != nil {
						t.Fatalf("seed %d: debit of %d against net %d: %v", seed, count, net, err)
					}
				default: // advance the clock and sweep what fell due
					now += int64(rng.Intn(30))
					if _, err := leader.ExpireSweep(ctx, time.Unix(now, 0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			recs := llog.Records()[sent:]
			sent += len(recs)
			for _, r := range recs {
				kinds[r.Kind]++
			}
			for i := 1; i < len(recs)-1; i++ {
				if recs[i].Kind != logstore.KindIssue && recs[i-1].Kind == logstore.KindIssue && recs[i+1].Kind == logstore.KindIssue {
					mixed++ // a debit splitting two runs of issues
				}
			}

			for _, d := range []*Distributor{fold, ref} {
				for _, r := range recs {
					if err := d.log.Append(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			fold.ApplyReplicated(ctx, recs)
			applyPerRecord(ctx, ref, recs)

			for _, d := range []*Distributor{fold, ref} {
				if d.cacheStale || d.cacheDirty {
					t.Fatalf("seed %d window %d: %s cache went stale on a sound window", seed, win, d.name)
				}
			}
			if got := headroom.M.Rebuilds.Value(); got != rebuilds {
				t.Fatalf("seed %d window %d: %d cache rebuilds", seed, win, got-rebuilds)
			}
			fs, err := fold.HeadroomSummaries(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := ref.HeadroomSummaries(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fs, rs) {
				t.Fatalf("seed %d window %d: folded summaries\n%+v\nper-record\n%+v", seed, win, fs, rs)
			}
			if f, r := fold.Stats(), ref.Stats(); f != r {
				t.Fatalf("seed %d window %d: folded stats %+v, per-record %+v", seed, win, f, r)
			}
			for i := 0; i < w.Corpus.Len(); i++ {
				set := leader.BelongsTo(w.Corpus.License(i).Rect)
				lr, err := leader.HeadroomContext(ctx, set)
				if err != nil {
					t.Fatal(err)
				}
				if fr, err := fold.HeadroomContext(ctx, set); err != nil || fr != lr {
					t.Fatalf("seed %d window %d: folded headroom(%v) = %d (%v), leader %d", seed, win, set, fr, err, lr)
				}
			}
		}
		if kinds[logstore.KindIssue] == 0 || kinds[logstore.KindRevoke] == 0 || kinds[logstore.KindExpire] == 0 ||
			kinds[logstore.KindTransfer] == 0 || refused == 0 || mixed == 0 {
			t.Fatalf("seed %d: windows did not exercise every case: kinds %v, refused %d, debits between issue runs %d",
				seed, kinds, refused, mixed)
		}
		t.Logf("seed %d: %d records, kinds %v, %d refused at the leader, %d debits between issue runs", seed, sent, kinds, refused, mixed)
	}
}
