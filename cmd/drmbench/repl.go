package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/wal"
	"repro/internal/workload"
)

// replRow is one point of the replication benchmark: a leader holding n
// durable records, a fresh follower tailing it over real HTTP handlers
// in bounded fetch windows until lag reaches zero, applying each window
// into a real engine.Distributor as drmserver's follower does, then a
// failover — the leader disappears and the follower is promoted and
// takes its first write. The catch-up timings are medians over
// replReps fresh followers.
type replRow struct {
	// Records is the leader's durable record count when the follower
	// starts; ShippedBytes is the wire-visible size of the mirrored log
	// (frames plus segment headers) the follower materialised.
	Records      int   `json:"records"`
	ShippedBytes int64 `json:"shipped_bytes"`
	// FetchRounds is how many bounded /v1/repl/wal round-trips the
	// catch-up took; ConvergeNS is the wall time from first fetch to
	// lag zero.
	FetchRounds int   `json:"fetch_rounds"`
	ConvergeNS  int64 `json:"converge_ns"`
	// FetchNS, IngestNS and ApplyNS split ConvergeNS: the wire (request
	// sent until the follower has read the body whole), the WAL ingest
	// with the follower's window checks (the remainder), and the
	// distributor's fold of the records (ApplyReplicated less its
	// landing).
	FetchNS  int64 `json:"fetch_ns"`
	IngestNS int64 `json:"ingest_ns"`
	ApplyNS  int64 `json:"apply_ns"`
	// RecordsPerSec / BytesPerSec are the sustained shipping throughputs
	// over the catch-up.
	RecordsPerSec float64 `json:"records_per_sec"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	// PromoteNS is the cost of Promote against a dead leader (drain
	// attempt included); FirstWriteNS is the first post-promotion append;
	// FailoverNS is their sum — the read-only window a client observes.
	PromoteNS    int64 `json:"promote_ns"`
	FirstWriteNS int64 `json:"first_write_ns"`
	FailoverNS   int64 `json:"failover_ns"`
}

// replReps is how many fresh followers each row catches up.
const replReps = 5

// replMeta pins the run parameters inside the artifact so two
// BENCH_repl.json records are comparable.
type replMeta struct {
	Max    int `json:"max_records"`
	Window int `json:"fetch_window_bytes"`
}

// dirBytes sums the regular files under dir — the bytes the follower
// had to materialise to mirror the leader.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// replWorkload is the leader's log: the routed serving workload's shape
// (the §5 corpus at N = 35 in five groups, counts 10–30), with every
// aggregate topped up so the whole log is admissible.
func replWorkload(n int) (*license.Corpus, []logstore.Record, error) {
	const licenses = 35
	w, err := workload.Generate(workload.Config{
		N: licenses, Groups: 5, Dims: 4, RecordsPerLicense: (n + licenses - 1) / licenses, Seed: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	recs := w.Records[:n]
	var total int64
	for _, r := range recs {
		total += r.Count
	}
	for i := 0; i < w.Corpus.Len(); i++ {
		if err := w.Corpus.TopUp(i, total+1); err != nil {
			return nil, nil, err
		}
	}
	return w.Corpus, recs, nil
}

// wireClock is an http.RoundTripper that sums each fetch's time on the
// wire: from sending the request until the follower closes the body,
// which it does once it has read it whole.
type wireClock struct {
	next  http.RoundTripper
	total time.Duration
}

func (c *wireClock) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		c.total += time.Since(start)
		return nil, err
	}
	resp.Body = &clockedBody{ReadCloser: resp.Body, start: start, clock: c}
	return resp, nil
}

type clockedBody struct {
	io.ReadCloser
	start  time.Time
	clock  *wireClock
	closed bool
}

func (b *clockedBody) Close() error {
	if !b.closed {
		b.closed = true
		b.clock.total += time.Since(b.start)
	}
	return b.ReadCloser.Close()
}

// replCatchUp is one fresh follower's catch-up.
type replCatchUp struct {
	f                              *cluster.Follower
	dir                            string
	rounds                         int
	converge, fetch, ingest, apply time.Duration
}

// catchUp starts a follower over an empty mirror in dir, applying into
// a read-only distributor over corpus, and fetches until lag is zero.
func catchUp(url, dir string, corpus *license.Corpus, n, window int) (*replCatchUp, error) {
	ctx := context.Background()
	store, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	d := engine.NewDistributor("repl", corpus.Schema(), engine.ModeOnline, store)
	for _, l := range corpus.Licenses() {
		cp := *l
		if _, err := d.AddRedistribution(&cp); err != nil {
			store.Close()
			return nil, err
		}
	}
	if err := d.WarmHeadroom(ctx); err != nil {
		store.Close()
		return nil, err
	}
	d.SetReadOnly(true)
	c := &replCatchUp{dir: dir}
	clock := &wireClock{next: http.DefaultTransport}
	c.f, err = cluster.NewFollower(cluster.FollowerConfig{
		Leader:   url,
		Client:   &http.Client{Transport: clock},
		Store:    store,
		MaxBytes: window,
		Apply: func(ctx context.Context, land func() ([]logstore.Record, error)) ([]logstore.Record, error) {
			// The distributor lands and folds in one step; time the
			// landing apart, so ApplyNS stays the fold alone.
			var landed time.Duration
			start := time.Now()
			rs, err := d.ApplyReplicated(ctx, func() ([]logstore.Record, error) {
				ls := time.Now()
				defer func() { landed = time.Since(ls) }()
				return land()
			})
			c.apply += time.Since(start) - landed
			return rs, err
		},
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	start := time.Now()
	for {
		got, err := c.f.FetchOnce(ctx)
		if err != nil {
			store.Close()
			return nil, err
		}
		c.rounds++
		if got == 0 || c.f.Lag().Seqs == 0 {
			break
		}
	}
	c.converge = time.Since(start)
	c.fetch = clock.total
	c.ingest = c.converge - c.fetch - c.apply
	if st := d.Stats(); st.Issued != n {
		store.Close()
		return nil, fmt.Errorf("follower applied %d records, leader holds %d", st.Issued, n)
	}
	return c, nil
}

// benchReplOne measures shipping and failover at n leader records with
// window-byte fetch batches.
func benchReplOne(n, window int) (replRow, error) {
	dir, err := os.MkdirTemp("", "drmbench-repl-*")
	if err != nil {
		return replRow{}, err
	}
	defer os.RemoveAll(dir)
	corpus, recs, err := replWorkload(n)
	if err != nil {
		return replRow{}, err
	}

	// The leader: n durable records behind the real replication handlers.
	// Default durability (FsyncAlways): only fsync-covered frames ship,
	// and the post-promotion first write pays the same fsync a real
	// leader would.
	lstore, err := wal.Open(filepath.Join(dir, "leader.wal"), wal.Options{})
	if err != nil {
		return replRow{}, err
	}
	defer lstore.Close()
	if err := lstore.AppendBatch(recs); err != nil {
		return replRow{}, err
	}
	mux := http.NewServeMux()
	cluster.NewLeader(lstore, 0).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Catch-up: fresh followers, each fetching until lag is zero; all
	// but the last are discarded.
	var runs []*replCatchUp
	for rep := 0; rep < replReps; rep++ {
		c, err := catchUp(srv.URL, filepath.Join(dir, fmt.Sprintf("follower-%d.wal", rep)), corpus, n, window)
		if err != nil {
			return replRow{}, err
		}
		runs = append(runs, c)
		if rep < replReps-1 {
			c.f.Store().Close()
		}
	}
	last := runs[len(runs)-1]
	defer func() { last.f.Store().Close() }()
	median := func(of func(*replCatchUp) time.Duration) time.Duration {
		ds := make([]time.Duration, len(runs))
		for i, c := range runs {
			ds[i] = of(c)
		}
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	converge := median(func(c *replCatchUp) time.Duration { return c.converge })
	row := replRow{
		Records:     n,
		FetchRounds: last.rounds,
		ConvergeNS:  converge.Nanoseconds(),
		FetchNS:     median(func(c *replCatchUp) time.Duration { return c.fetch }).Nanoseconds(),
		IngestNS:    median(func(c *replCatchUp) time.Duration { return c.ingest }).Nanoseconds(),
		ApplyNS:     median(func(c *replCatchUp) time.Duration { return c.apply }).Nanoseconds(),
	}
	if row.ShippedBytes, err = dirBytes(last.dir); err != nil {
		return replRow{}, err
	}
	if s := converge.Seconds(); s > 0 {
		row.RecordsPerSec = float64(n) / s
		row.BytesPerSec = float64(row.ShippedBytes) / s
	}

	// Failover: the leader is gone; promote and take the first write.
	srv.Close()
	ctx := context.Background()
	start := time.Now()
	last.f.Promote(ctx)
	promote := time.Since(start)
	row.PromoteNS = promote.Nanoseconds()
	start = time.Now()
	if err := last.f.Store().Append(logstore.Record{Set: recs[0].Set, Count: 1}); err != nil {
		return replRow{}, err
	}
	write := time.Since(start)
	row.FirstWriteNS = write.Nanoseconds()
	row.FailoverNS = (promote + write).Nanoseconds()
	return row, nil
}

// benchRepl sweeps decades from 10^4 up to maxRecords, then maxRecords
// itself when it is not a decade.
func benchRepl(maxRecords, window int) ([]replRow, error) {
	var sizes []int
	for n := 10_000; n <= maxRecords; n *= 10 {
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 || sizes[len(sizes)-1] != maxRecords {
		sizes = append(sizes, maxRecords)
	}
	var rows []replRow
	for _, n := range sizes {
		row, err := benchReplOne(n, window)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func writeRepl(out io.Writer, rows []replRow) error {
	tw := tabwriter.NewWriter(out, 4, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "records\tshipped\trounds\tconverge\tfetch\tingest\tapply\trec/s\tMiB/s\tpromote\tfirst_write\tfailover\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%v\t%v\t%v\t%.0f\t%.1f\t%v\t%v\t%v\t\n",
			r.Records, r.ShippedBytes, r.FetchRounds,
			time.Duration(r.ConvergeNS).Round(10*time.Microsecond),
			time.Duration(r.FetchNS).Round(10*time.Microsecond),
			time.Duration(r.IngestNS).Round(10*time.Microsecond),
			time.Duration(r.ApplyNS).Round(10*time.Microsecond),
			r.RecordsPerSec, r.BytesPerSec/(1<<20),
			time.Duration(r.PromoteNS).Round(time.Microsecond),
			time.Duration(r.FirstWriteNS).Round(time.Microsecond),
			time.Duration(r.FailoverNS).Round(time.Microsecond))
	}
	return tw.Flush()
}

func writeReplCSV(out io.Writer, rows []replRow) error {
	if _, err := fmt.Fprintln(out, "records,shipped_bytes,fetch_rounds,converge_ns,fetch_ns,ingest_ns,apply_ns,records_per_sec,bytes_per_sec,promote_ns,first_write_ns,failover_ns"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(out, "%d,%d,%d,%d,%d,%d,%d,%.2f,%.2f,%d,%d,%d\n",
			r.Records, r.ShippedBytes, r.FetchRounds, r.ConvergeNS, r.FetchNS, r.IngestNS, r.ApplyNS,
			r.RecordsPerSec, r.BytesPerSec, r.PromoteNS, r.FirstWriteNS, r.FailoverNS); err != nil {
			return err
		}
	}
	return nil
}

// writeReplJSON writes the rows as a stable JSON artifact (the
// BENCH_repl.json record CI uploads): a schema tag, the run parameters,
// and the rows.
func writeReplJSON(path string, rows []replRow, meta replMeta) error {
	doc := struct {
		Bench  string    `json:"bench"`
		Schema string    `json:"schema"`
		Meta   replMeta  `json:"meta"`
		Rows   []replRow `json:"rows"`
	}{Bench: "repl_failover", Schema: "drmbench/repl/v1", Meta: meta, Rows: rows}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
