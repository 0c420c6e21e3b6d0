package logstore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/drmerr"
)

// Kind classifies a lifecycle ledger record. The zero value is
// KindIssue so pre-lifecycle (kindless) records decode as issues.
type Kind uint8

const (
	// KindIssue credits Count permissions against the record's set —
	// the original issuance-log row.
	KindIssue Kind = iota
	// KindRevoke debits Count permissions: a refund or takedown of
	// previously issued licenses.
	KindRevoke
	// KindExpire debits Count permissions whose TTL lapsed; the record's
	// Expiry names the bucket being retired so the ledger can match it
	// against the issues that opened it.
	KindExpire
	// KindTransfer moves Count permissions between consumers. It leaves
	// the net consumed count unchanged; the ledger tracks the cumulative
	// transferred total so the engine can enforce transfer caps.
	KindTransfer

	numKinds
)

// Valid reports whether k is a known lifecycle kind.
func (k Kind) Valid() bool { return k < numKinds }

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindIssue:
		return "issue"
	case KindRevoke:
		return "revoke"
	case KindExpire:
		return "expire"
	case KindTransfer:
		return "transfer"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind maps a wire name back to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "issue":
		return KindIssue, nil
	case "revoke":
		return KindRevoke, nil
	case "expire":
		return KindExpire, nil
	case "transfer":
		return KindTransfer, nil
	default:
		return 0, drmerr.New(drmerr.KindInvalidInput, "logstore.kind",
			"logstore: unknown record kind %q", s)
	}
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("logstore: cannot encode unknown kind %d", uint8(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a wire name; an empty string is KindIssue for
// symmetry with the omitted field.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("logstore: kind: %w", err)
	}
	if s == "" {
		*k = KindIssue
		return nil
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// bucketKey identifies a TTL bucket: the set issued against and the
// instant its permissions lapse.
type bucketKey struct {
	set    bitset.Mask
	expiry int64
}

// Ledger is the running lifecycle state of a record sequence: per-set
// net outstanding counts (credits minus debits), per-(set, expiry)
// outstanding TTL buckets, and cumulative transfer totals. Every store
// maintains one and consults Admit before appending, which is what
// makes the soundness condition — cumulative debits per set never
// exceed cumulative credits — an append-time invariant rather than an
// audit-time discovery. The zero value is an empty ledger.
//
// Ledger itself is not goroutine-safe; stores guard it with their own
// locks and hand out copies via Clone.
type Ledger struct {
	net     map[bitset.Mask]int64
	buckets map[bucketKey]int64
	xfer    map[bitset.Mask]int64
}

// LedgerOf replays records into a fresh ledger without soundness
// checks — the form used for rebuilding state from sequences that were
// already admitted record by record.
func LedgerOf(records []Record) *Ledger {
	l := &Ledger{}
	for _, r := range records {
		l.Apply(r)
	}
	return l
}

// Admit checks that appending r preserves ledger soundness. It assumes
// r passed Validate. Violations are typed KindLedgerUnsound.
func (l *Ledger) Admit(r Record) error {
	const op = "logstore.ledger"
	switch r.Kind {
	case KindRevoke, KindExpire:
		if net := l.net[r.Set]; r.Count > net {
			return drmerr.New(drmerr.KindLedgerUnsound, op,
				"logstore: %s of %d exceeds net outstanding %d for set %v",
				r.Kind, r.Count, net, r.Set)
		}
		if r.Kind == KindExpire && r.Expiry != 0 {
			if out := l.buckets[bucketKey{r.Set, r.Expiry}]; r.Count > out {
				return drmerr.New(drmerr.KindLedgerUnsound, op,
					"logstore: expire of %d exceeds outstanding %d in bucket (set %v, expiry %d)",
					r.Count, out, r.Set, r.Expiry)
			}
		}
	}
	return nil
}

// Apply folds r into the ledger. Call Admit first; applying an
// unadmitted debit can drive counts negative.
func (l *Ledger) Apply(r Record) {
	switch r.Kind {
	case KindIssue:
		l.addNet(r.Set, r.Count)
		if r.Expiry != 0 {
			l.addBucket(bucketKey{r.Set, r.Expiry}, r.Count)
		}
	case KindRevoke:
		l.addNet(r.Set, -r.Count)
	case KindExpire:
		l.addNet(r.Set, -r.Count)
		if r.Expiry != 0 {
			l.addBucket(bucketKey{r.Set, r.Expiry}, -r.Count)
		}
	case KindTransfer:
		if l.xfer == nil {
			l.xfer = make(map[bitset.Mask]int64)
		}
		l.xfer[r.Set] += r.Count
	}
}

// unapply reverses Apply — the rollback primitive batch appends use
// when a later record in the batch fails admission.
func (l *Ledger) unapply(r Record) {
	switch r.Kind {
	case KindIssue:
		l.addNet(r.Set, -r.Count)
		if r.Expiry != 0 {
			l.addBucket(bucketKey{r.Set, r.Expiry}, -r.Count)
		}
	case KindRevoke:
		l.addNet(r.Set, r.Count)
	case KindExpire:
		l.addNet(r.Set, r.Count)
		if r.Expiry != 0 {
			l.addBucket(bucketKey{r.Set, r.Expiry}, r.Count)
		}
	case KindTransfer:
		if l.xfer[r.Set] -= r.Count; l.xfer[r.Set] == 0 {
			delete(l.xfer, r.Set)
		}
	}
}

// ObserveAll admits and applies records atomically: either every
// record folds in (debits may consume credits earlier in the same
// batch), or the ledger is left unchanged and the first admission
// error is returned. The records go through a Fold, which refuses the
// same record Observe would and then holds exactly the records before
// it, so the rollback unapplies just those.
func (l *Ledger) ObserveAll(recs []Record) error {
	f := NewFold(l)
	for i, r := range recs {
		if err := f.Observe(r); err != nil {
			for j := i - 1; j >= 0; j-- {
				l.unapply(recs[j])
			}
			return err
		}
	}
	f.Flush()
	return nil
}

// Observe is Admit followed by Apply.
func (l *Ledger) Observe(r Record) error {
	if err := l.Admit(r); err != nil {
		return err
	}
	l.Apply(r)
	return nil
}

func (l *Ledger) addNet(set bitset.Mask, delta int64) {
	if l.net == nil {
		l.net = make(map[bitset.Mask]int64)
	}
	if l.net[set] += delta; l.net[set] == 0 {
		delete(l.net, set)
	}
}

func (l *Ledger) addBucket(k bucketKey, delta int64) {
	if l.buckets == nil {
		l.buckets = make(map[bucketKey]int64)
	}
	if l.buckets[k] += delta; l.buckets[k] == 0 {
		delete(l.buckets, k)
	}
}

// Net returns the set's net outstanding count (credits − debits).
func (l *Ledger) Net(set bitset.Mask) int64 { return l.net[set] }

// Transferred returns the set's cumulative transferred total.
func (l *Ledger) Transferred(set bitset.Mask) int64 { return l.xfer[set] }

// Clone returns an independent deep copy.
func (l *Ledger) Clone() *Ledger {
	c := &Ledger{}
	if len(l.net) > 0 {
		c.net = make(map[bitset.Mask]int64, len(l.net))
		for k, v := range l.net {
			c.net[k] = v
		}
	}
	if len(l.buckets) > 0 {
		c.buckets = make(map[bucketKey]int64, len(l.buckets))
		for k, v := range l.buckets {
			c.buckets[k] = v
		}
	}
	if len(l.xfer) > 0 {
		c.xfer = make(map[bitset.Mask]int64, len(l.xfer))
		for k, v := range l.xfer {
			c.xfer[k] = v
		}
	}
	return c
}

// eachSet walks every set the ledger knows about in mask order. For
// each it passes the set's TTL buckets in expiry order as issue records,
// each clamped by the earliest-first budget rule (buckets draw on the
// set's net count earliest first, so debits beyond the non-expiring pool
// come out of the latest buckets), and rest, the non-expiring remainder.
// The bucket keys are sorted once by (set, expiry), so a walk costs
// O(B log B) for B buckets, not a bucket scan per set. The buckets slice
// is reused across calls.
func (l *Ledger) eachSet(fn func(set bitset.Mask, buckets []Record, rest int64)) {
	keys := make([]bucketKey, 0, len(l.buckets))
	for k := range l.buckets {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b bucketKey) int {
		return cmp.Or(cmp.Compare(a.set, b.set), cmp.Compare(a.expiry, b.expiry))
	})
	var buckets []Record
	for _, set := range l.sets() {
		budget := l.net[set]
		buckets = buckets[:0]
		for ; len(keys) > 0 && keys[0].set == set; keys = keys[1:] {
			take := min(l.buckets[keys[0]], budget)
			budget -= take
			buckets = append(buckets, Record{Set: set, Count: take, Meta: Meta{Expiry: keys[0].expiry}})
		}
		fn(set, buckets, budget)
	}
}

// sets returns every set the ledger knows about (net, bucket, or
// transfer state), ordered by mask.
func (l *Ledger) sets() []bitset.Mask {
	seen := make(map[bitset.Mask]bool, len(l.net)+len(l.xfer))
	for s := range l.net {
		seen[s] = true
	}
	for s := range l.xfer {
		seen[s] = true
	}
	for k := range l.buckets {
		seen[k.set] = true
	}
	out := make([]bitset.Mask, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// Due returns the expire records for every TTL bucket due at or before
// now (unix seconds), clamped so cumulative expiries never exceed a
// set's net outstanding count — revokes may already have consumed part
// of a bucket. Budget is allocated to the earliest buckets first, the
// same rule Canonical uses, so sweeping before or after a compaction
// retires identical amounts. Applying the returned records in order is
// always sound. Records are ordered by set, then expiry.
func (l *Ledger) Due(now int64) []Record {
	var out []Record
	l.eachSet(func(_ bitset.Mask, buckets []Record, _ int64) {
		for _, b := range buckets {
			if b.Count > 0 && b.Expiry <= now {
				b.Kind = KindExpire
				out = append(out, b)
			}
		}
	})
	return out
}

// Canonical emits the ledger's canonical record sequence: per set
// (ordered by mask), one plain issue holding the non-expiring net
// count, one TTL'd issue per surviving bucket (expiry ascending, each
// clamped by the earliest-first budget rule), and one transfer carrying
// the cumulative transferred total. Replaying the result rebuilds the
// same net counts, expiry schedule and transfer totals, and its own
// canonical form is the result again.
func (l *Ledger) Canonical() []Record {
	out := make([]Record, 0, len(l.net)+len(l.buckets)+len(l.xfer))
	l.eachSet(func(set bitset.Mask, buckets []Record, rest int64) {
		if rest > 0 {
			out = append(out, Record{Set: set, Count: rest})
		}
		for _, b := range buckets {
			if b.Count > 0 {
				out = append(out, b)
			}
		}
		if x := l.xfer[set]; x > 0 {
			out = append(out, Record{Kind: KindTransfer, Set: set, Count: x})
		}
	})
	return out
}

// LedgerReader is implemented by stores that expose a snapshot of their
// lifecycle ledger state. The engine's expiry sweeper and transfer-cap
// policy read it; both bundled stores (Mem and wal.Store) implement it.
type LedgerReader interface {
	// LedgerSnapshot returns an independent copy of the store's current
	// ledger, safe to read without further locking.
	LedgerSnapshot() *Ledger
}
