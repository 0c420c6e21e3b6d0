package logstore

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/drmerr"
)

// foldSequence draws a random sound lifecycle sequence over a few sets
// and expiries: plain and TTL issues, revokes, expires and transfers,
// each debit sized against the net and bucket it draws on, so that runs
// of plain credits sit between the debits that consume them. With
// inject, one debit that exceeds its set's net or bucket is planted at a
// random index; Observe must refuse it there.
func foldSequence(t *testing.T, rng *rand.Rand, n, sets, expiries int, inject bool) []Record {
	t.Helper()
	l := &Ledger{}
	bad := -1
	if inject {
		bad = rng.Intn(n)
	}
	out := make([]Record, 0, n)
	for len(out) < n {
		set := bitset.Mask(1 + rng.Intn(sets))
		expiry := int64(1 + rng.Intn(expiries))
		net, bucket := l.Net(set), l.buckets[bucketKey{set, expiry}]
		r := Record{Set: set, Count: int64(1 + rng.Intn(20))}
		if len(out) == bad {
			switch rng.Intn(3) {
			case 0:
				r = Record{Kind: KindRevoke, Set: set, Count: net + 1 + rng.Int63n(3)}
			case 1:
				r = Record{Kind: KindExpire, Set: set, Count: net + 1 + rng.Int63n(3), Meta: Meta{Expiry: expiry}}
			default:
				if bucket >= net {
					continue // no amount exceeds the bucket but not the net
				}
				r = Record{Kind: KindExpire, Set: set, Count: bucket + 1, Meta: Meta{Expiry: expiry}}
			}
			if l.Admit(r) == nil {
				t.Fatalf("planted debit %+v admitted", r)
			}
			return append(out, r)
		}
		switch k := rng.Intn(20); {
		case k < 9: // plain issue
		case k < 12:
			r.Expiry = expiry
		case k < 15:
			if net == 0 {
				continue
			}
			r = Record{Kind: KindRevoke, Set: set, Count: 1 + rng.Int63n(net)}
		case k < 18:
			avail := min(bucket, net)
			if avail == 0 {
				continue
			}
			r = Record{Kind: KindExpire, Set: set, Count: 1 + rng.Int63n(avail), Meta: Meta{Expiry: expiry}}
		default:
			r.Kind = KindTransfer
		}
		if err := l.Observe(r); err != nil {
			t.Fatalf("drawn record %+v refused: %v", r, err)
		}
		out = append(out, r)
	}
	return out
}

// observeAll runs recs through observe up to the first refusal,
// returning its index (-1 if none) and error.
func observeAll(recs []Record, observe func(Record) error) (int, error) {
	for i, r := range recs {
		if err := observe(r); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// TestFoldMatchesObserve pins the replay fold to Ledger.Observe on
// seeded random lifecycle sequences, half of them with an unsound debit
// planted: the same refusal index, error kind and message, and the same
// ledger afterwards — canonical form, every set's net and transferred
// totals, and the expiry schedule at several instants.
func TestFoldMatchesObserve(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets, expiries := 1+rng.Intn(12), 1+rng.Intn(8)
		recs := foldSequence(t, rng, 1+rng.Intn(300), sets, expiries, seed%2 == 0)

		want := &Ledger{}
		wantAt, wantErr := observeAll(recs, want.Observe)
		got := &Ledger{}
		fold := NewFold(got)
		gotAt, gotErr := observeAll(recs, fold.Observe)
		fold.Flush()

		if gotAt != wantAt || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: fold refused record %d (%v), Observe refused record %d (%v)", seed, gotAt, gotErr, wantAt, wantErr)
		}
		if wantErr != nil {
			if drmerr.KindOf(gotErr) != drmerr.KindOf(wantErr) || gotErr.Error() != wantErr.Error() {
				t.Fatalf("seed %d: record %d: fold error %v, Observe error %v", seed, gotAt, gotErr, wantErr)
			}
		}
		if g, w := got.Canonical(), want.Canonical(); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Canonical = %+v\nObserve's %+v", seed, g, w)
		}
		for s := bitset.Mask(1); s <= bitset.Mask(sets); s++ {
			if g, w := got.Net(s), want.Net(s); g != w {
				t.Fatalf("seed %d: Net(%v) = %d, Observe's %d", seed, s, g, w)
			}
			if g, w := got.Transferred(s), want.Transferred(s); g != w {
				t.Fatalf("seed %d: Transferred(%v) = %d, Observe's %d", seed, s, g, w)
			}
		}
		for _, now := range []int64{0, 1, int64(expiries / 2), int64(expiries), 1 << 40} {
			if g, w := got.Due(now), want.Due(now); !slices.Equal(g, w) {
				t.Fatalf("seed %d: Due(%d) = %+v, Observe's %+v", seed, now, g, w)
			}
		}
	}
}

// TestFoldTableGrows drives the fold's table through several doublings
// with pending sums in place and checks no credit is lost on the way.
func TestFoldTableGrows(t *testing.T) {
	got, want := &Ledger{}, &Ledger{}
	fold := NewFold(got)
	for i := range 20_000 {
		r := Record{Set: bitset.Mask(1 + (i*7919)%5000), Count: int64(1 + i%13)}
		if err := fold.Observe(r); err != nil {
			t.Fatal(err)
		}
		want.Apply(r)
	}
	fold.Flush()
	if g, w := got.Canonical(), want.Canonical(); !slices.Equal(g, w) {
		t.Fatalf("after growth: %d canonical records, want %d", len(g), len(w))
	}
}

// TestFoldRebuildsFileLedger reopens a JSONL log of lifecycle records:
// the scan folds it back into the ledger its appends built.
func TestFoldRebuildsFileLedger(t *testing.T) {
	recs := foldSequence(t, rand.New(rand.NewSource(7)), 500, 6, 4, false)
	path := filepath.Join(t.TempDir(), "issue.log.jsonl")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := f.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := f.LedgerSnapshot().Canonical()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := g.LedgerSnapshot().Canonical(); !slices.Equal(got, want) {
		t.Fatalf("reopened ledger = %+v\nwant %+v", got, want)
	}
}

// TestObserveAllRollsBack pins ObserveAll, which admits a batch through
// a Fold, to Observe record by record from the same ledger: a batch
// Observe accepts lands whole, and one it refuses fails with the same
// error and leaves the ledger exactly as it was.
func TestObserveAllRollsBack(t *testing.T) {
	var refused int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets, expiries := 1+rng.Intn(8), 1+rng.Intn(6)
		base := &Ledger{}
		for _, r := range foldSequence(t, rng, rng.Intn(100), sets, expiries, false) {
			base.Apply(r)
		}
		batch := foldSequence(t, rng, 1+rng.Intn(200), sets, expiries, seed%2 == 0)

		want := base.Clone()
		_, wantErr := observeAll(batch, want.Observe)
		got := base.Clone()
		gotErr := got.ObserveAll(batch)
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("seed %d: ObserveAll error %v, Observe error %v", seed, gotErr, wantErr)
		}
		if wantErr != nil {
			refused++
			want = base
		}
		if g, w := got.Canonical(), want.Canonical(); !slices.Equal(g, w) {
			t.Fatalf("seed %d: ledger after ObserveAll = %+v\nwant %+v", seed, g, w)
		}
		for s := bitset.Mask(1); s <= bitset.Mask(sets); s++ {
			if got.Net(s) != want.Net(s) || got.Transferred(s) != want.Transferred(s) {
				t.Fatalf("seed %d: set %v: net %d, transferred %d; want %d, %d",
					seed, s, got.Net(s), got.Transferred(s), want.Net(s), want.Transferred(s))
			}
		}
	}
	if refused == 0 {
		t.Fatal("no batch was refused")
	}
}
