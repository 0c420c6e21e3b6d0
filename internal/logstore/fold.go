package logstore

import (
	"math/bits"

	"repro/internal/bitset"
)

// Fold is the replay fold every store recovers a durable log through.
// Observing a record sequence through a Fold and then calling Flush
// leaves the ledger exactly where Ledger.Observe on each record would,
// and an unsound record fails at the same index with the same error and
// the same ledger state. It is faster because plain credits (issues with
// no expiry), which are nearly all of a long-lived log, commute: their
// only effect is to add to the set's net count, so the fold sums them
// per set in a small open-addressed table and applies each set's sum to
// the ledger once. Any other record first flushes its own set's pending
// sum and then goes through Ledger.Observe, so every debit is admitted
// in log order against the exact net. Admission reads only the
// record's own set, which is why the other sets' sums may stay pending.
//
// Until Flush, the ledger may lag the credits observed. A Fold is not
// goroutine-safe.
type Fold struct {
	led   *Ledger
	slots []foldSlot // power-of-two length, linear probing; set 0 marks a free slot
	used  int
	shift uint // 64 − log2(len(slots))
}

// foldSlot is one set's pending credit sum. A valid record's set is
// never empty, so the zero mask is free to mark unused slots.
type foldSlot struct {
	set bitset.Mask
	sum int64
}

// foldMinSlots is the table's initial size (4 KiB). It doubles as sets
// arrive: the 635 sets of a 10^6-record log take 2,048 slots, 32 KiB.
const foldMinSlots = 256

// NewFold starts a replay fold into l.
func NewFold(l *Ledger) *Fold { return &Fold{led: l} }

// Observe folds r into the ledger, with Ledger.Observe's contract: an
// unsound debit is refused with a KindLedgerUnsound error, after the
// fold has flushed every pending sum so the ledger holds exactly the
// records before r. Like Ledger.Observe, it assumes r passed Validate.
func (f *Fold) Observe(r Record) error {
	if r.Kind == KindIssue && r.Expiry == 0 {
		f.Credit(r.Set, r.Count)
		return nil
	}
	f.flushSet(r.Set)
	if err := f.led.Observe(r); err != nil {
		f.Flush()
		return err
	}
	return nil
}

// Flush applies every pending sum to the ledger. Call it once the
// sequence ends; the fold stays usable afterwards.
func (f *Fold) Flush() {
	for i := range f.slots {
		if sl := &f.slots[i]; sl.sum != 0 {
			f.led.addNet(sl.set, sl.sum)
			sl.sum = 0
		}
	}
}

// flushSet applies set's pending sum, if any. The slot keeps its key:
// a set that was credited once is likely credited again.
func (f *Fold) flushSet(set bitset.Mask) {
	if f.used == 0 {
		return
	}
	for i := f.home(set); ; i = (i + 1) & (len(f.slots) - 1) {
		switch sl := &f.slots[i]; sl.set {
		case set:
			if sl.sum != 0 {
				f.led.addNet(set, sl.sum)
				sl.sum = 0
			}
			return
		case 0:
			return
		}
	}
}

// Credit folds a plain credit of count to set: Observe of an issue
// record with no expiry, for a caller that decoded one without building
// the Record. Like Observe it assumes what Validate checks: set is not
// empty and count is positive.
func (f *Fold) Credit(set bitset.Mask, count int64) {
	// Keep the load at most one half: every probe past the first costs
	// a mispredicted branch, which on random sets outweighs the table's
	// cache footprint.
	if 2*(f.used+1) > len(f.slots) {
		f.grow()
	}
	for i := f.home(set); ; i = (i + 1) & (len(f.slots) - 1) {
		sl := &f.slots[i]
		if sl.set == set {
			sl.sum += count
			return
		}
		if sl.set == 0 {
			*sl = foldSlot{set: set, sum: count}
			f.used++
			return
		}
	}
}

// home is set's first probe slot: Fibonacci hashing, which spreads the
// clustered masks of one overlap group across the table.
func (f *Fold) home(set bitset.Mask) int {
	return int(uint64(set) * 0x9e3779b97f4a7c15 >> f.shift)
}

// grow doubles the table (or allocates the first one) and reinserts the
// occupied slots, pending sums included.
func (f *Fold) grow() {
	old := f.slots
	n := max(2*len(old), foldMinSlots)
	f.slots = make([]foldSlot, n)
	f.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, sl := range old {
		if sl.set == 0 {
			continue
		}
		i := f.home(sl.set)
		for f.slots[i].set != 0 {
			i = (i + 1) & (n - 1)
		}
		f.slots[i] = sl
	}
}
