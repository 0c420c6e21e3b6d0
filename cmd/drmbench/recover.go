package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"repro/internal/bitset"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// recoverRow is one point of the recovery benchmark: how long a WAL open
// takes when it must replay every record, versus when a snapshot covers
// all but a small tail.
type recoverRow struct {
	Records     int
	FullReplay  time.Duration
	SnapTail    time.Duration
	TailRecords int
	Speedup     float64
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

// benchRecoverOne measures both recovery paths at n records. The tail
// after the snapshot is 1% of n (at least one record), modelling a store
// that checkpoints regularly.
func benchRecoverOne(n int) (recoverRow, error) {
	dir, err := os.MkdirTemp("", "drmbench-recover-*")
	if err != nil {
		return recoverRow{}, err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "issued.wal")
	opts := wal.Options{Fsync: wal.FsyncOS}

	tail := n / 100
	if tail < 1 {
		tail = 1
	}
	recs := genRecords(n)

	s, err := wal.Open(walDir, opts)
	if err != nil {
		return recoverRow{}, err
	}
	if err := s.AppendBatch(recs); err != nil {
		s.Close()
		return recoverRow{}, err
	}
	if err := s.Close(); err != nil {
		return recoverRow{}, err
	}

	// Full replay: no snapshot exists, every frame is re-read.
	s, err = wal.Open(walDir, opts)
	if err != nil {
		return recoverRow{}, err
	}
	row := recoverRow{Records: n, FullReplay: s.RecoveryStats().Duration}

	// Install a snapshot covering all but the last `tail` records: replay
	// work drops from O(records) to O(distinct sets) + O(tail).
	if _, err := s.Snapshot(); err != nil {
		s.Close()
		return recoverRow{}, err
	}
	if err := s.AppendBatch(recs[:tail]); err != nil {
		s.Close()
		return recoverRow{}, err
	}
	if err := s.Close(); err != nil {
		return recoverRow{}, err
	}

	s, err = wal.Open(walDir, opts)
	if err != nil {
		return recoverRow{}, err
	}
	st := s.RecoveryStats()
	row.SnapTail = st.Duration
	row.TailRecords = st.TailRecords
	if err := s.Close(); err != nil {
		return recoverRow{}, err
	}
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
	fmt.Fprintln(tw, "records\tfull_replay\tsnap_tail\ttail_records\tspeedup\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%d\t%.1fx\t\n",
			r.Records, r.FullReplay.Round(10*time.Microsecond),
			r.SnapTail.Round(10*time.Microsecond), r.TailRecords, r.Speedup)
	}
	return tw.Flush()
}

func writeRecoverCSV(out io.Writer, rows []recoverRow) error {
	if _, err := fmt.Fprintln(out, "records,full_replay_ns,snap_tail_ns,tail_records,speedup"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(out, "%d,%d,%d,%d,%.2f\n",
			r.Records, r.FullReplay.Nanoseconds(), r.SnapTail.Nanoseconds(),
			r.TailRecords, r.Speedup); err != nil {
			return err
		}
	}
	return nil
}
