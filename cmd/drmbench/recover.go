package main

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/bitset"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// recoverOpens is how many times each WAL is opened; a point reports the
// median, since single opens of a 10^6-record log vary by up to 3× on a
// shared host.
const recoverOpens = 5

// recoverRow is one point of the recovery benchmark: how long a WAL open
// takes when it must replay every record, of plain credits or of the
// lifecycle mix, versus when a snapshot covers all but a small tail of
// the plain credits. Each time is the median of recoverOpens opens.
type recoverRow struct {
	Records     int
	FullReplay  time.Duration
	MixedReplay time.Duration
	SnapTail    time.Duration
	TailRecords int
	Speedup     float64
}

// nsPerFrame is the replay cost of one frame of a full replay.
func (r recoverRow) nsPerFrame(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(r.Records)
}

// genRecords builds n deterministic plain issues over 600 belongs-to
// sets spread across five overlap groups of ten licenses — about as many
// distinct sets as perfbench's 10^6 ledger priors hold (635), so the
// ledger outgrows L1 cache as it does in serving. Cheap enough to
// generate at 10^7.
func genRecords(n int) []logstore.Record {
	sets := make([]bitset.Mask, 600)
	for j := range sets {
		sets[j] = bitset.Mask(uint64(1+j/5) << (10 * (j % 5)))
	}
	rng := rand.New(rand.NewSource(1))
	out := make([]logstore.Record, n)
	for i := range out {
		out[i] = logstore.Record{Set: sets[rng.Intn(len(sets))], Count: int64(1 + i%25)}
	}
	return out
}

// genMixedRecords is genRecords in the 8:1:1 issue:revoke:transfer mix
// perfbench drives, a quarter of the issues carrying one of 16 expiries:
// of every ten records six are plain credits (v1 frames), two TTL
// issues, one a revoke of an earlier plain issue's set, and one a
// transfer.
func genMixedRecords(n int) []logstore.Record {
	out := genRecords(n)
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

// writeWAL creates a WAL in dir holding recs.
func writeWAL(dir string, opts wal.Options, recs []logstore.Record) error {
	s, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	if err := s.AppendBatch(recs); err != nil {
		s.Close()
		return err
	}
	return s.Close()
}

// medianOpen opens the WAL in dir recoverOpens times and returns the
// recovery stats of the median open.
func medianOpen(dir string, opts wal.Options) (wal.RecoveryStats, error) {
	stats := make([]wal.RecoveryStats, 0, recoverOpens)
	for range recoverOpens {
		s, err := wal.Open(dir, opts)
		if err != nil {
			return wal.RecoveryStats{}, err
		}
		stats = append(stats, s.RecoveryStats())
		if err := s.Close(); err != nil {
			return wal.RecoveryStats{}, err
		}
	}
	slices.SortFunc(stats, func(a, b wal.RecoveryStats) int { return cmp.Compare(a.Duration, b.Duration) })
	return stats[recoverOpens/2], nil
}

// benchRecoverOne measures the three recovery paths at n records. The
// tail after the snapshot is 1% of n (at least one record), modelling a
// store that checkpoints regularly.
func benchRecoverOne(n int) (recoverRow, error) {
	dir, err := os.MkdirTemp("", "drmbench-recover-*")
	if err != nil {
		return recoverRow{}, err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{Fsync: wal.FsyncOS}
	row := recoverRow{Records: n}

	mixedDir := filepath.Join(dir, "mixed.wal")
	if err := writeWAL(mixedDir, opts, genMixedRecords(n)); err != nil {
		return recoverRow{}, err
	}
	st, err := medianOpen(mixedDir, opts)
	if err != nil {
		return recoverRow{}, err
	}
	row.MixedReplay = st.Duration

	// Full replay: no snapshot exists, every frame is re-read.
	walDir := filepath.Join(dir, "issued.wal")
	recs := genRecords(n)
	if err := writeWAL(walDir, opts, recs); err != nil {
		return recoverRow{}, err
	}
	if st, err = medianOpen(walDir, opts); err != nil {
		return recoverRow{}, err
	}
	row.FullReplay = st.Duration

	// Install a snapshot covering all but the last tail records: replay
	// work drops from O(records) to O(distinct sets) + O(tail).
	s, err := wal.Open(walDir, opts)
	if err != nil {
		return recoverRow{}, err
	}
	if _, err := s.Snapshot(); err != nil {
		s.Close()
		return recoverRow{}, err
	}
	if err := s.AppendBatch(recs[:max(n/100, 1)]); err != nil {
		s.Close()
		return recoverRow{}, err
	}
	if err := s.Close(); err != nil {
		return recoverRow{}, err
	}
	if st, err = medianOpen(walDir, opts); err != nil {
		return recoverRow{}, err
	}
	row.SnapTail = st.Duration
	row.TailRecords = st.TailRecords
	if row.SnapTail > 0 {
		row.Speedup = float64(row.FullReplay) / float64(row.SnapTail)
	}
	return row, nil
}

// benchRecover sweeps decades from 10^5 up to maxRecords.
func benchRecover(maxRecords int) ([]recoverRow, error) {
	var rows []recoverRow
	for n := 100_000; n <= maxRecords; n *= 10 {
		row, err := benchRecoverOne(n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 { // maxRecords below the first decade: one point
		row, err := benchRecoverOne(maxRecords)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func writeRecover(out io.Writer, rows []recoverRow) error {
	tw := tabwriter.NewWriter(out, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "records\tfull_replay\tns/frame\tmixed_replay\tns/frame\tsnap_tail\ttail_records\tspeedup\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%.1f\t%v\t%.1f\t%v\t%d\t%.1fx\t\n",
			r.Records, r.FullReplay.Round(10*time.Microsecond), r.nsPerFrame(r.FullReplay),
			r.MixedReplay.Round(10*time.Microsecond), r.nsPerFrame(r.MixedReplay),
			r.SnapTail.Round(10*time.Microsecond), r.TailRecords, r.Speedup)
	}
	return tw.Flush()
}

func writeRecoverCSV(out io.Writer, rows []recoverRow) error {
	if _, err := fmt.Fprintln(out, "records,full_replay_ns,snap_tail_ns,tail_records,speedup,full_ns_per_frame,mixed_replay_ns,mixed_ns_per_frame"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(out, "%d,%d,%d,%d,%.2f,%.1f,%d,%.1f\n",
			r.Records, r.FullReplay.Nanoseconds(), r.SnapTail.Nanoseconds(),
			r.TailRecords, r.Speedup, r.nsPerFrame(r.FullReplay),
			r.MixedReplay.Nanoseconds(), r.nsPerFrame(r.MixedReplay)); err != nil {
			return err
		}
	}
	return nil
}
