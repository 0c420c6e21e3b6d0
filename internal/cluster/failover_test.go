package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/drmerr"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The failover property test extends the WAL crash-injection harness
// across the wire: a leader appends under a byte budget until the
// injected "power cut", a follower tails it over real HTTP handlers the
// whole time, drains the durable prefix after the crash, and is
// promoted. The promoted follower must satisfy the same invariant the
// single-node recovery sweep proves —
//
//	acked ⊆ recovered ⊆ attempted
//
// — with records a byte-exact prefix of the workload and an audit
// report identical to an uninterrupted in-memory store holding the same
// prefix.

var errFailCrash = errors.New("cluster_test: injected crash")

// failBudget / failFile mirror the wal package's crash harness: writes
// pass through until the shared byte budget trips, then the disk is
// gone.
type failBudget struct {
	mu        sync.Mutex
	remaining int64
	tripped   bool
	written   int64
}

type failFile struct {
	f *os.File
	b *failBudget
}

func (c *failFile) Write(p []byte) (int, error) {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.b.tripped {
		return 0, errFailCrash
	}
	n := len(p)
	if int64(n) > c.b.remaining {
		n = int(c.b.remaining)
		c.b.tripped = true
	}
	c.b.remaining -= int64(n)
	if n > 0 {
		if _, err := c.f.Write(p[:n]); err != nil {
			return 0, err
		}
		c.b.written += int64(n)
	}
	if c.b.tripped {
		return n, errFailCrash
	}
	return n, nil
}

func (c *failFile) Sync() error {
	c.b.mu.Lock()
	tripped := c.b.tripped
	c.b.mu.Unlock()
	if tripped {
		return errFailCrash
	}
	return c.f.Sync()
}

func (c *failFile) Close() error { return c.f.Close() }

func failHook(b *failBudget) func(string, int) (wal.SegFile, error) {
	return func(path string, flag int) (wal.SegFile, error) {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		return &failFile{f: f, b: b}, nil
	}
}

func failoverWorkload(t *testing.T) (*license.Corpus, []logstore.Record) {
	t.Helper()
	cfg := workload.Default(8)
	cfg.RecordsPerLicense = 8
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w.Corpus, w.Records
}

func report(t *testing.T, corpus *license.Corpus, log logstore.Store) core.Report {
	t.Helper()
	aud, err := core.NewAuditor(corpus, log)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func records(t *testing.T, s logstore.Store) []logstore.Record {
	t.Helper()
	var out []logstore.Record
	if err := s.ForEach(func(r logstore.Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSegmentPrefixes fails the test unless every segment file in the
// follower's directory is a byte prefix of the leader's segment of the
// same name: the mirror holds the leader's frames and nothing else.
func checkSegmentPrefixes(t *testing.T, followerDir, leaderDir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(followerDir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range segs {
		fb, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := os.ReadFile(filepath.Join(leaderDir, filepath.Base(path)))
		if err != nil {
			t.Fatalf("follower segment %s: %v", filepath.Base(path), err)
		}
		if !bytes.HasPrefix(lb, fb) {
			t.Fatalf("follower segment %s (%d bytes) is not a prefix of the leader's (%d bytes)",
				filepath.Base(path), len(fb), len(lb))
		}
	}
}

// leaderServer mounts the replication handlers over store.
func leaderServer(t *testing.T, store *wal.Store) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	NewLeader(store, 0).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// measureLeaderBytes runs the workload with an unlimited budget and
// returns the total bytes written — the injection sweep range.
func measureLeaderBytes(t *testing.T, opts wal.Options, recs []logstore.Record) int64 {
	t.Helper()
	b := &failBudget{remaining: math.MaxInt64}
	opts.OpenSegFile = failHook(b)
	s, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return b.written
}

func TestFailoverAckedSubsetOfPromoted(t *testing.T) {
	corpus, recs := failoverWorkload(t)
	opts := wal.Options{SegmentBytes: 16 + 5*24} // ~5 v1 frames per segment
	total := measureLeaderBytes(t, opts, recs)
	step := total / 24
	if step < 1 {
		step = 1
	}
	root := t.TempDir()
	ctx := context.Background()
	swept := 0
	for off := int64(0); off <= total; off += step {
		swept++
		ldir := filepath.Join(root, fmt.Sprintf("leader-%06d", off))
		fdir := filepath.Join(root, fmt.Sprintf("follower-%06d", off))
		b := &failBudget{remaining: off}
		inj := opts
		inj.OpenSegFile = failHook(b)
		lstore, err := wal.Open(ldir, inj)
		if err != nil {
			if !errors.Is(err, errFailCrash) {
				t.Fatalf("offset %d: open: %v", off, err)
			}
			continue // crashed before the first append could be attempted
		}
		srv := leaderServer(t, lstore)
		fstore, err := wal.Open(fdir, opts)
		if err != nil {
			t.Fatal(err)
		}
		var applied []logstore.Record
		f, err := NewFollower(FollowerConfig{
			Leader:   srv.URL,
			Store:    fstore,
			MaxBytes: 128, // small windows: many round-trips per segment
			Apply: func(_ context.Context, land func() ([]logstore.Record, error)) ([]logstore.Record, error) {
				rs, err := land()
				applied = append(applied, rs...)
				return rs, err
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		// The leader appends toward its crash while the follower tails
		// mid-batch, like a production fetch loop interleaving with
		// writes.
		acked, attempted := 0, 0
		for i, r := range recs {
			attempted++
			if err := lstore.Append(r); err != nil {
				if !errors.Is(err, errFailCrash) {
					t.Fatalf("offset %d: append: %v", off, err)
				}
				break
			}
			acked++
			if i%5 == 0 {
				if _, err := f.FetchOnce(ctx); err != nil {
					t.Fatalf("offset %d: mid-batch fetch: %v", off, err)
				}
			}
		}

		// The leader's write path is dead; its durable bytes are still
		// readable. Drain them, then the leader disappears for good and
		// the follower is promoted.
		if err := f.Sync(ctx); err != nil {
			t.Fatalf("offset %d: post-crash drain: %v", off, err)
		}
		srv.Close()
		f.Promote(ctx) // final best-effort catch-up against a dead leader
		if !f.Promoted() || f.Role().Role != RoleLeader {
			t.Fatalf("offset %d: follower not promoted", off)
		}

		n := int(fstore.Seq())
		if n < acked {
			t.Fatalf("offset %d: promoted follower lost synced records: %d < acked %d", off, n, acked)
		}
		if n > attempted {
			t.Fatalf("offset %d: promoted follower invented records: %d > attempted %d", off, n, attempted)
		}
		checkSegmentPrefixes(t, fdir, ldir)
		if len(applied) != n {
			t.Fatalf("offset %d: apply callback saw %d records, store holds %d", off, len(applied), n)
		}
		for i := range applied {
			if applied[i] != recs[i] {
				t.Fatalf("offset %d: record %d not a workload prefix", off, i)
			}
		}
		if got, want := records(t, fstore), logstore.Compact(recs[:n]); !slices.Equal(got, want) {
			t.Fatalf("offset %d: promoted follower replays %+v, want the compacted prefix %+v", off, got, want)
		}
		mem := logstore.NewMem(n)
		for _, r := range recs[:n] {
			if err := mem.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(report(t, corpus, fstore), report(t, corpus, mem)) {
			t.Fatalf("offset %d: promoted follower's audit differs from uninterrupted store with %d records", off, n)
		}
		// The promoted follower continues the same log.
		if err := fstore.Append(recs[0]); err != nil {
			t.Fatalf("offset %d: append after promotion: %v", off, err)
		}
		if err := fstore.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if swept < 20 {
		t.Fatalf("swept only %d injection offsets, want >= 20", swept)
	}
}

// TestFollowerLagAndReadiness: lag is leader-durable minus local, the
// readiness gate trips past -max-lag, and a full sync clears it.
func TestFollowerLagAndReadiness(t *testing.T) {
	_, recs := failoverWorkload(t)
	opts := wal.Options{SegmentBytes: 16 + 8*24}
	lstore, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lstore.Close()
	for _, r := range recs[:10] {
		if err := lstore.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	srv := leaderServer(t, lstore)
	fstore, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	f, err := NewFollower(FollowerConfig{
		Leader: srv.URL, Store: fstore,
		MaxBytes:   2 * 24, // two records per round-trip
		MaxLagSeqs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
	lag := f.Lag()
	if lag.LeaderSeq != 10 || lag.LocalSeq != 2 || lag.Seqs != 8 {
		t.Fatalf("lag after one window = %+v, want leader 10, local 2", lag)
	}
	err = f.ReadyErr()
	if drmerr.KindOf(err) != drmerr.KindReplicaLag {
		t.Fatalf("ReadyErr %d behind with bound 3: %v, want replica_lag", lag.Seqs, err)
	}
	role := f.Role()
	if role.Role != RoleFollower || role.Ready || role.LagSeqs != 8 {
		t.Fatalf("role while lagging = %+v", role)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadyErr(); err != nil {
		t.Fatalf("ReadyErr after sync: %v", err)
	}
	if lag := f.Lag(); lag.Seqs != 0 || lag.LocalSeq != 10 {
		t.Fatalf("lag after sync = %+v", lag)
	}
}

// TestFollowerRebootstrapAfterCompaction: a leader that snapshots and
// compacts past a dormant follower's cursor answers 410; the follower
// rebuilds from the bootstrap document via its Reset callback and
// converges to the same records.
func TestFollowerRebootstrapAfterCompaction(t *testing.T) {
	_, recs := failoverWorkload(t)
	opts := wal.Options{SegmentBytes: 16 + 4*24}
	lstore, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lstore.Close()
	for _, r := range recs[:20] {
		if err := lstore.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lstore.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := lstore.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[20:30] {
		if err := lstore.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	srv := leaderServer(t, lstore)

	fdir := t.TempDir()
	fstore, err := wal.Open(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	resets := 0
	f, err := NewFollower(FollowerConfig{
		Leader: srv.URL, Store: fstore,
		Reset: func(_ context.Context, doc *wal.BootstrapDoc) (*wal.Store, error) {
			resets++
			if err := fstore.Close(); err != nil {
				return nil, err
			}
			ns, err := ReinstallStore(fdir, doc, opts)
			if err == nil {
				fstore = ns
			}
			return ns, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resets != 1 {
		t.Fatalf("resets = %d, want exactly 1", resets)
	}
	if f.Store() != fstore {
		t.Fatal("follower still points at the pre-bootstrap store")
	}
	// Compaction folded the snapshot prefix into per-set counts; the
	// tail past the watermark must match record for record, and the
	// aggregate picture must match the full workload prefix.
	if got, want := sums(records(t, fstore)), sums(recs[:30]); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-set sums after re-bootstrap diverge: %v != %v", got, want)
	}
	if got, want := fstore.Seq(), lstore.Seq(); got != want {
		t.Fatalf("seq after re-bootstrap = %d, leader %d", got, want)
	}
}

// sums aggregates counts per (set, kind) — the audit-relevant view
// that survives compaction.
func sums(recs []logstore.Record) map[string]int64 {
	out := make(map[string]int64)
	for _, r := range recs {
		out[fmt.Sprintf("%v/%d", r.Set, r.Kind)] += r.Count
	}
	return out
}
