package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/drmerr"
	"repro/internal/logstore"
)

// shipAll tails leader into follower with a small window until the
// follower reaches the leader's durable frontier, returning the number
// of fetch rounds. It mirrors the cluster follower's fetch loop.
func shipAll(t *testing.T, leader, follower *Store, maxBytes int) int {
	t.Helper()
	cur := follower.DurableCursor()
	rounds := 0
	for {
		rounds++
		if rounds > 100000 {
			t.Fatal("shipAll: no convergence")
		}
		batch, err := leader.ReadFrames(cur, maxBytes)
		if err != nil {
			t.Fatalf("ReadFrames at %v: %v", cur, err)
		}
		if len(batch.Data) == 0 && batch.Next == batch.Start {
			return rounds
		}
		next, _, err := follower.IngestFrames(batch.Start, batch.Data)
		if err != nil {
			t.Fatalf("IngestFrames at %v: %v", batch.Start, err)
		}
		if next != batch.Next {
			t.Fatalf("ingest frontier %v, leader said %v", next, batch.Next)
		}
		cur = batch.Next
	}
}

// segmentBytesOf reads every segment file in dir, keyed by name.
func segmentBytesOf(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), segmentSuffix) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestShipRotationBoundaryByteIdentical tails a leader across several
// rotation boundaries with a window smaller than a segment and checks
// the follower's directory is a byte-for-byte mirror — headers, frame
// layout, segment boundaries and all — and that reopening the mirror
// recovers the same records.
func TestShipRotationBoundaryByteIdentical(t *testing.T) {
	opts := Options{SegmentBytes: 256}
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := Open(followerDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, records := crashWorkload(t)
	// Interleave shipping with appends so fetches land mid-segment, at
	// sealed boundaries, and on the empty just-rotated segment.
	for i, r := range records {
		if err := leader.Append(r); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			shipAll(t, leader, follower, 64)
		}
	}
	shipAll(t, leader, follower, 64)
	if got, want := follower.Seq(), leader.Seq(); got != want {
		t.Fatalf("follower seq %d, leader %d", got, want)
	}
	lb, fb := segmentBytesOf(t, leaderDir), segmentBytesOf(t, followerDir)
	if !reflect.DeepEqual(lb, fb) {
		t.Fatalf("mirror diverged: leader has %d segments, follower %d", len(lb), len(fb))
	}
	// The mirror must recover through the ordinary Open path.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(followerDir, opts)
	if err != nil {
		t.Fatalf("reopening mirror: %v", err)
	}
	defer reopened.Close()
	if !equalSums(sums(collect(t, reopened)), sums(collect(t, leader))) {
		t.Fatal("recovered mirror sums differ from leader")
	}
}

// TestShipTornTailStopsAtWatermark crashes the leader mid-frame and
// checks the follower drains exactly the durable prefix: the torn frame
// never ships, the follower's frontier equals the leader's synced seq,
// and the audit over the promoted mirror equals the audit over an
// uninterrupted store holding the acked prefix.
func TestShipTornTailStopsAtWatermark(t *testing.T) {
	corpus, records := crashWorkload(t)
	opts := Options{SegmentBytes: 512}
	total := measureWrittenBytes(t, opts, records)
	// Cut the budget mid-stream at a deliberately frame-misaligned byte.
	b := &crashBudget{remaining: total/2 + 13}
	opts.OpenSegFile = crashHook(b)
	leaderDir := t.TempDir()
	leader, err := Open(leaderDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for _, r := range records {
		if err := leader.Append(r); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("append: %v", err)
			}
			break
		}
		acked++
	}
	if acked == 0 || acked == len(records) {
		t.Fatalf("budget missed the stream: acked %d of %d", acked, len(records))
	}
	// The leader store is poisoned, but its read path must still serve
	// the durable prefix — that is what a failover drains.
	follower, err := Open(t.TempDir(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	shipAll(t, leader, follower, 4096)
	if got := follower.Seq(); got != uint64(acked) {
		t.Fatalf("follower drained %d records, leader acked %d", got, acked)
	}
	if got, want := follower.Seq(), leader.SyncedSeq(); got != want {
		t.Fatalf("follower seq %d, leader synced %d", got, want)
	}
	// No torn bytes ingested: the follower's active segment ends exactly
	// at the leader's durable boundary.
	if fc, lc := follower.DurableCursor(), leader.DurableCursor(); fc != lc {
		t.Fatalf("follower frontier %v, leader durable %v", fc, lc)
	}
	mem := &logstore.Mem{}
	for _, r := range records[:acked] {
		if err := mem.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := auditReport(t, corpus, follower), auditReport(t, corpus, mem); !reflect.DeepEqual(got, want) {
		t.Fatal("audit over drained mirror differs from uninterrupted store")
	}
}

// TestShipMixedFramesFreshFollower ships a v1/v2 mixed-frame log (plain
// issues, TTL issue, revoke, transfer, expire) to a fresh follower and
// checks records, ledger state, and bytes all survive the trip.
func TestShipMixedFramesFreshFollower(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	want := lifecycleRecords()
	for _, r := range want {
		if err := leader.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	follower, err := Open(followerDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, leader, follower, 50) // window smaller than two v2 frames
	checkHistory(t, follower, want, "follower")
	if !reflect.DeepEqual(segmentBytesOf(t, leaderDir), segmentBytesOf(t, followerDir)) {
		t.Fatal("mixed-frame mirror is not byte-identical")
	}
	if !reflect.DeepEqual(leader.LedgerSnapshot(), follower.LedgerSnapshot()) {
		t.Fatal("follower ledger state differs from leader")
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(followerDir, Options{})
	if err != nil {
		t.Fatalf("reopening mixed-frame mirror: %v", err)
	}
	defer reopened.Close()
	checkHistory(t, reopened, want, "reopened mirror")
}

// TestShipBootstrapAfterCompaction covers the fresh-follower path when
// the leader has snapshotted and compacted: genesis tailing reports
// ErrCompacted, and InstallBootstrap + Open + tail converges to the
// leader's full state through the ordinary recovery path.
func TestShipBootstrapAfterCompaction(t *testing.T) {
	corpus, records := crashWorkload(t)
	opts := Options{SegmentBytes: 512}
	leader, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	half := len(records) / 2
	for _, r := range records[:half] {
		if err := leader.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, r := range records[half:] {
		if err := leader.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.Snapshot(); err != nil { // moves the watermark to the last segment
		t.Fatal(err)
	}
	if _, err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.ReadFrames(StartCursor(), 4096); !errors.Is(err, ErrCompacted) {
		t.Fatalf("genesis tail after compaction: err = %v, want ErrCompacted", err)
	}
	doc, err := leader.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Snapshot == nil {
		t.Fatal("leader with installed snapshot shipped a snapshotless bootstrap")
	}
	followerDir := t.TempDir()
	if err := InstallBootstrap(followerDir, doc); err != nil {
		t.Fatal(err)
	}
	follower, err := Open(followerDir, opts)
	if err != nil {
		t.Fatalf("opening bootstrapped follower: %v", err)
	}
	defer follower.Close()
	if got, want := follower.Seq(), doc.Start.Seq; got != want {
		t.Fatalf("bootstrapped follower seq %d, watermark %d", got, want)
	}
	shipAll(t, leader, follower, 4096)
	if got, want := auditReport(t, corpus, follower), auditReport(t, corpus, leader); !reflect.DeepEqual(got, want) {
		t.Fatal("audit over bootstrapped follower differs from leader")
	}
	// Installing over existing state must be refused.
	if err := InstallBootstrap(followerDir, doc); drmerr.KindOf(err) != drmerr.KindInvalidInput {
		t.Fatalf("reinstall over existing state: err = %v, want invalid_input", err)
	}
}

// TestIngestRefusesMismatchAndCorruption checks a follower cannot be
// desynchronized: a batch at the wrong frontier and a batch with a
// flipped byte are both refused whole, leaving the store appendable.
func TestIngestRefusesMismatchAndCorruption(t *testing.T) {
	leader, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for _, r := range testRecords(4) {
		if err := leader.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	follower, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	batch, err := leader.ReadFrames(follower.DurableCursor(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	wrong := batch.Start
	wrong.Seq += 3
	if _, _, err := follower.IngestFrames(wrong, batch.Data); drmerr.KindOf(err) != drmerr.KindInvalidInput {
		t.Fatalf("mismatched start: err = %v, want invalid_input", err)
	}
	bad := append([]byte(nil), batch.Data...)
	bad[len(bad)-3] ^= 0x40
	if _, _, err := follower.IngestFrames(batch.Start, bad); drmerr.KindOf(err) != drmerr.KindStoreCorrupt {
		t.Fatalf("corrupt batch: err = %v, want store_corrupt", err)
	}
	if got := follower.Seq(); got != 0 {
		t.Fatalf("refused batches advanced the frontier to %d", got)
	}
	if _, _, err := follower.IngestFrames(batch.Start, batch.Data); err != nil {
		t.Fatalf("clean batch after refusals: %v", err)
	}
	if got, want := follower.Seq(), uint64(batch.Records); got != want {
		t.Fatalf("follower seq %d, want %d", got, want)
	}
}
