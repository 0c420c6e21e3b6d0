package wal

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/logstore"
)

// benchSets are the belongs-to sets the recovery fixtures draw from: 600
// masks spread over five overlap groups of ten licenses, about as many
// distinct sets as perfbench's 10^6 ledger priors hold (635). Over a
// handful of sets the ledger sits in L1 cache and recovery times read
// low.
func benchSets() []bitset.Mask {
	sets := make([]bitset.Mask, 600)
	for j := range sets {
		sets[j] = bitset.Mask(uint64(1+j/5) << (10 * (j % 5)))
	}
	return sets
}

// benchRecords mirrors a long-lived issuance log: many plain issues,
// each against a set drawn from benchSets.
func benchRecords(n int) []logstore.Record {
	sets := benchSets()
	rng := rand.New(rand.NewSource(1))
	out := make([]logstore.Record, n)
	for i := range out {
		out[i] = logstore.Record{Set: sets[rng.Intn(len(sets))], Count: int64(1 + i%25)}
	}
	return out
}

// mixedBenchRecords is benchRecords with every lifecycle verb in the
// 8:1:1 issue:revoke:transfer mix perfbench drives, a quarter of the
// issues carrying one of 16 expiries: of every ten records six are
// plain credits, two TTL issues, one a revoke of an earlier plain
// issue's set, and one a transfer.
func mixedBenchRecords(n int) []logstore.Record {
	out := benchRecords(n)
	for i := range out {
		switch i % 10 {
		case 6, 7:
			out[i].Expiry = 2_000_000_000 + int64(i/10%16)*3600
		case 8:
			out[i] = logstore.Record{Kind: logstore.KindRevoke, Set: out[i-3].Set, Count: 1}
		case 9:
			out[i].Kind = logstore.KindTransfer
		}
	}
	return out
}

// BenchmarkRecovery measures Open on a 10^6-record WAL (10^5 under
// -short): FullReplay with no snapshot, SnapshotTail with a snapshot
// covering all but a 1% tail, and MixedReplay, a full replay of the
// lifecycle mix, where 60% of frames are plain credits. It reports the
// frame bytes replayed as MB/s, the wall-clock cost per replayed frame
// as ns/frame, and the process CPU time (user plus system, from
// getrusage around each Open) per replayed frame as cpu-ns/frame, which
// leaves out time spent waiting for a CPU. The acceptance bar is
// SnapshotTail ≥10× faster than FullReplay; EXPERIMENTS.md records the
// measured times.
func BenchmarkRecovery(b *testing.B) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	opts := Options{Fsync: FsyncOS}

	build := func(b *testing.B, recs []logstore.Record, snapshot bool) string {
		b.Helper()
		dir := b.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		if snapshot {
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
			if err := s.AppendBatch(recs[:n/100]); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	bench := func(recs []logstore.Record, snapshot bool) func(*testing.B) {
		return func(b *testing.B) {
			dir := build(b, recs, snapshot)
			replayed := recs
			if snapshot {
				replayed = recs[:n/100]
			}
			var bytes int64
			for _, r := range replayed {
				bytes += frameSize(r)
			}
			b.SetBytes(bytes)
			var cpu time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before, _ := processCPU()
				s, err := Open(dir, opts)
				after, _ := processCPU()
				cpu += after - before
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			perFrame := func(d time.Duration) float64 {
				return float64(d.Nanoseconds()) / float64(b.N) / float64(len(replayed))
			}
			b.ReportMetric(perFrame(b.Elapsed()), "ns/frame")
			if _, ok := processCPU(); ok {
				b.ReportMetric(perFrame(cpu), "cpu-ns/frame")
			}
		}
	}
	plain := benchRecords(n)
	b.Run("FullReplay", bench(plain, false))
	b.Run("SnapshotTail", bench(plain, true))
	b.Run("MixedReplay", bench(mixedBenchRecords(n), false))
}
