package logstore

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitset"
)

// randomLedger drives a ledger through n random sound lifecycle records
// over a small set and expiry space, so sets carry several TTL buckets,
// revokes eat into them and expiries retire some.
func randomLedger(rng *rand.Rand, n, sets, expiries int) *Ledger {
	l := &Ledger{}
	for range n {
		set := bitset.Mask(1 + rng.Intn(sets))
		r := Record{Set: set, Count: int64(1 + rng.Intn(20))}
		switch rng.Intn(6) {
		case 0, 1: // plain issue
		case 2: // TTL issue
			r.Expiry = int64(1 + rng.Intn(expiries))
		case 3: // revoke
			r.Kind = KindRevoke
			if net := l.Net(set); net > 0 {
				r.Count = 1 + rng.Int63n(net)
			}
		case 4: // expire part of one of the set's buckets
			r.Kind = KindExpire
			r.Expiry = int64(1 + rng.Intn(expiries))
			if out := min(l.buckets[bucketKey{set, r.Expiry}], l.Net(set)); out > 0 {
				r.Count = 1 + rng.Int63n(out)
			}
		case 5:
			r.Kind = KindTransfer
		}
		_ = l.Observe(r) // unsound draws are refused and leave l unchanged
	}
	return l
}

// refCanonicalDue is what Canonical and Due compute, written the slow
// obvious way: per set, scan every bucket for the set's own, order them
// by expiry, and hand the net count out earliest first.
func refCanonicalDue(l *Ledger, now int64) (canon, due []Record) {
	seen := map[bitset.Mask]bool{}
	for s := range l.net {
		seen[s] = true
	}
	for s := range l.xfer {
		seen[s] = true
	}
	for k := range l.buckets {
		seen[k.set] = true
	}
	var sets []bitset.Mask
	for s := range seen {
		sets = append(sets, s)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
	for _, set := range sets {
		var expiries []int64
		for k := range l.buckets {
			if k.set == set {
				expiries = append(expiries, k.expiry)
			}
		}
		sort.Slice(expiries, func(i, j int) bool { return expiries[i] < expiries[j] })
		budget := l.net[set]
		var ttl []Record
		for _, e := range expiries {
			take := min(l.buckets[bucketKey{set, e}], budget)
			budget -= take
			if take > 0 {
				ttl = append(ttl, Record{Set: set, Count: take, Meta: Meta{Expiry: e}})
				if e <= now {
					due = append(due, Record{Kind: KindExpire, Set: set, Count: take, Meta: Meta{Expiry: e}})
				}
			}
		}
		if budget > 0 {
			canon = append(canon, Record{Set: set, Count: budget})
		}
		canon = append(canon, ttl...)
		if x := l.xfer[set]; x > 0 {
			canon = append(canon, Record{Kind: KindTransfer, Set: set, Count: x})
		}
	}
	return canon, due
}

// TestLedgerCanonicalAndDueMatchReference pins the one-sort walk behind
// Canonical and Due to the per-set reference on seeded random ledgers,
// and checks the canonical form is a fixed point of compaction.
func TestLedgerCanonicalAndDueMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randomLedger(rng, 50+rng.Intn(1500), 1+rng.Intn(40), 1+rng.Intn(60))
		canon := l.Canonical()
		for _, now := range []int64{0, 1, 17, 30, 61, 1 << 40} {
			wantCanon, wantDue := refCanonicalDue(l, now)
			if !slices.Equal(canon, wantCanon) {
				t.Fatalf("seed %d: Canonical = %+v\nreference  %+v", seed, canon, wantCanon)
			}
			if got := l.Due(now); !slices.Equal(got, wantDue) {
				t.Fatalf("seed %d: Due(%d) = %+v\nreference %+v", seed, now, got, wantDue)
			}
		}
		if again := LedgerOf(canon).Canonical(); !slices.Equal(again, canon) {
			t.Fatalf("seed %d: canonical form is not a compaction fixed point", seed)
		}
	}
}

// BenchmarkLedgerCanonical times Canonical and Due on 600 sets holding
// 50,000 TTL buckets between them — the shape where a bucket scan per
// set is quadratic.
func BenchmarkLedgerCanonical(b *testing.B) {
	l := &Ledger{}
	for i := range 50_000 {
		l.Apply(Record{Set: bitset.Mask(1 + i%600), Count: 3, Meta: Meta{Expiry: int64(1 + i)}})
	}
	b.Run("Canonical", func(b *testing.B) {
		for range b.N {
			l.Canonical()
		}
	})
	b.Run("Due", func(b *testing.B) {
		for range b.N {
			l.Due(25_000)
		}
	})
}
