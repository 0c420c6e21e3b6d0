package engine

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/wal"
	"repro/internal/workload"
)

// catchUpWorkload is the leader's log: the routed serving workload's
// shape (the §5 corpus at N = 35 in five groups, counts 10–30), with
// every aggregate topped up so the whole log is admissible.
func catchUpWorkload(tb testing.TB, n int) (*license.Corpus, []logstore.Record) {
	tb.Helper()
	const licenses = 35
	w, err := workload.Generate(workload.Config{
		N: licenses, Groups: 5, Dims: 4, RecordsPerLicense: (n + licenses - 1) / licenses, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	recs := w.Records[:n]
	var total int64
	for _, r := range recs {
		total += r.Count
	}
	for i := 0; i < w.Corpus.Len(); i++ {
		if err := w.Corpus.TopUp(i, total+1); err != nil {
			tb.Fatal(err)
		}
	}
	return w.Corpus, recs
}

// catchUpLeader serves n durable records of catchUpWorkload behind the
// real replication handlers. Default durability (FsyncAlways): only
// fsync-covered frames ship.
func catchUpLeader(tb testing.TB, n int) (*license.Corpus, string) {
	tb.Helper()
	corpus, recs := catchUpWorkload(tb, n)
	store, err := wal.Open(filepath.Join(tb.TempDir(), "leader.wal"), wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	if err := store.AppendBatch(recs); err != nil {
		tb.Fatal(err)
	}
	mux := http.NewServeMux()
	cluster.NewLeader(store, 0).Mount(mux)
	srv := httptest.NewServer(mux)
	tb.Cleanup(srv.Close)
	return corpus, srv.URL
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

// catchUp is one fresh follower catching a leader up. converge is the
// wall time from the first fetch to lag zero, split into fetch (the
// wire: request sent until the body is read whole), apply (the
// distributor's fold of the records: ApplyReplicated less its landing)
// and ingest (the remainder: the WAL ingest with the follower's window
// checks).
type catchUp struct {
	d                              *Distributor
	f                              *cluster.Follower
	clock                          *wireClock
	rounds                         int
	converge, fetch, ingest, apply time.Duration
}

// newCatchUp starts a follower over an empty mirror in dir, applying
// into a read-only distributor over corpus as drmserver's follower does.
func newCatchUp(tb testing.TB, url, dir string, corpus *license.Corpus, window int) *catchUp {
	tb.Helper()
	store, err := wal.Open(dir, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	d := NewDistributor("catch-up", corpus.Schema(), ModeOnline, store)
	for _, l := range corpus.Licenses() {
		cp := *l
		if _, err := d.AddRedistribution(&cp); err != nil {
			store.Close()
			tb.Fatal(err)
		}
	}
	if err := d.WarmHeadroom(context.Background()); err != nil {
		store.Close()
		tb.Fatal(err)
	}
	d.SetReadOnly(true)
	c := &catchUp{d: d, clock: &wireClock{next: http.DefaultTransport}}
	c.f, err = cluster.NewFollower(cluster.FollowerConfig{
		Leader:   url,
		Client:   &http.Client{Transport: c.clock},
		Store:    store,
		MaxBytes: window,
		Apply: func(ctx context.Context, land func() ([]logstore.Record, error)) ([]logstore.Record, error) {
			// The distributor lands and folds in one step; time the
			// landing apart, so apply stays the fold alone.
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
		tb.Fatal(err)
	}
	return c
}

// run fetches until lag is zero.
func (c *catchUp) run(tb testing.TB) {
	tb.Helper()
	ctx := context.Background()
	start := time.Now()
	for {
		got, err := c.f.FetchOnce(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		c.rounds++
		if got == 0 || c.f.Lag().Seqs == 0 {
			break
		}
	}
	c.converge = time.Since(start)
	c.fetch = c.clock.total
	c.ingest = c.converge - c.fetch - c.apply
}

// TestCatchUpRounds: a fresh follower catches the benchmark's leader up
// over several 4 KiB windows and applies every record.
func TestCatchUpRounds(t *testing.T) {
	const n = 2_000
	corpus, url := catchUpLeader(t, n)
	c := newCatchUp(t, url, filepath.Join(t.TempDir(), "follower.wal"), corpus, 4<<10)
	defer c.f.Store().Close()
	c.run(t)
	if got := c.d.Stats().Issued; got != n {
		t.Fatalf("follower applied %d records, leader holds %d", got, n)
	}
	// 2,000 v1 frames of 24 bytes cannot fit one 4 KiB window.
	if c.rounds < 2 {
		t.Errorf("rounds = %d, want a multi-round catch-up", c.rounds)
	}
	if c.fetch <= 0 || c.ingest <= 0 || c.apply <= 0 {
		t.Errorf("catch-up %v splits into fetch %v, ingest %v and apply %v; want each part positive",
			c.converge, c.fetch, c.ingest, c.apply)
	}
}

// BenchmarkCatchUp times a fresh follower catching up a leader that
// holds the routed workload's 22,050 priors, one follower per op (2,000
// records in 4 KiB windows under -short, so several rounds run). Beside
// ns/op, the time to lag zero, it reports that time's fetch, ingest and
// apply parts and the fetch rounds it took.
func BenchmarkCatchUp(b *testing.B) {
	n, window := 22_050, cluster.DefaultMaxBytes
	if testing.Short() {
		n, window = 2_000, 4<<10
	}
	corpus, url := catchUpLeader(b, n)
	base := b.TempDir()
	var rounds int
	var fetch, ingest, apply time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(base, strconv.Itoa(i))
		c := newCatchUp(b, url, dir, corpus, window)
		b.StartTimer()
		c.run(b)
		b.StopTimer()
		if got := c.d.Stats().Issued; got != n {
			b.Fatalf("follower applied %d records, leader holds %d", got, n)
		}
		rounds += c.rounds
		fetch += c.fetch
		ingest += c.ingest
		apply += c.apply
		if err := c.f.Store().Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
	b.ReportMetric(perOp(fetch), "fetch-ns/op")
	b.ReportMetric(perOp(ingest), "ingest-ns/op")
	b.ReportMetric(perOp(apply), "apply-ns/op")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
