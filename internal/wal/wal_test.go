package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
)

// Store must satisfy the log-store contract the engine replays through.
var _ logstore.Store = (*Store)(nil)

// testRecords builds n deterministic valid records over an 8-license
// universe, with enough set variety that compaction has work to do.
func testRecords(n int) []logstore.Record {
	sets := []bitset.Mask{
		bitset.MaskOf(0), bitset.MaskOf(1), bitset.MaskOf(0, 1),
		bitset.MaskOf(2, 3), bitset.MaskOf(4), bitset.MaskOf(5, 6, 7),
	}
	out := make([]logstore.Record, n)
	for i := range out {
		out[i] = logstore.Record{Set: sets[i%len(sets)], Count: int64(1 + i%9)}
	}
	return out
}

func collect(t *testing.T, s logstore.Store) []logstore.Record {
	t.Helper()
	recs, err := logstore.Collect(s)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return recs
}

// segmentRecords decodes every frame of every segment file in dir, in
// log order: the raw append history, which the store itself keeps only
// on disk.
func segmentRecords(t *testing.T, dir string) []logstore.Record {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []logstore.Record
	for _, idx := range segs {
		data, err := os.ReadFile(segmentPath(dir, idx))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseSegmentHeader(data); !ok {
			t.Fatalf("segment %d: bad header", idx)
		}
		for off := segmentHeaderSize; off < len(data); {
			rec, n, status := parseFrame(data[off:])
			if status != frameOK {
				t.Fatalf("segment %d: invalid frame at byte %d", idx, off)
			}
			out = append(out, rec)
			off += n
		}
	}
	return out
}

// checkHistory fails the test unless s holds exactly the records want:
// Seq counts them, the segment files decode to them frame by frame, and
// ForEach replays their compacted form. It suits stores whose segments
// were never retired by a snapshot.
func checkHistory(t *testing.T, s *Store, want []logstore.Record, label string) {
	t.Helper()
	if got := s.Seq(); got != uint64(len(want)) {
		t.Fatalf("%s: Seq = %d, want %d", label, got, len(want))
	}
	frames := segmentRecords(t, s.Dir())
	if len(frames) != len(want) {
		t.Fatalf("%s: segments hold %d frames, want %d", label, len(frames), len(want))
	}
	for i := range want {
		if frames[i] != want[i] {
			t.Fatalf("%s: frame %d = %+v, want %+v (not a prefix)", label, i, frames[i], want[i])
		}
	}
	if got, compacted := collect(t, s), logstore.Compact(want); !slices.Equal(got, compacted) {
		t.Fatalf("%s: ForEach = %+v, want the compacted history %+v", label, got, compacted)
	}
}

// sums aggregates records per set — the audit-relevant view, invariant
// under compaction.
func sums(recs []logstore.Record) map[bitset.Mask]int64 {
	m := make(map[bitset.Mask]int64)
	for _, r := range recs {
		m[r.Set] += r.Count
	}
	return m
}

func equalSums(a, b map[bitset.Mask]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(25)
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 25 {
		t.Errorf("Len = %d, want 25", s.Len())
	}
	if s.SyncedSeq() != 25 { // FsyncAlways is the default
		t.Errorf("SyncedSeq = %d, want 25", s.SyncedSeq())
	}
	checkHistory(t, s, want, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 25 || s2.Len() != 25 {
		t.Errorf("reopened Seq/Len = %d/%d, want 25/25", s2.Seq(), s2.Len())
	}
	checkHistory(t, s2, want, "reopened")
	st := s2.RecoveryStats()
	if st.TailRecords != 25 || st.SnapshotRecords != 0 || st.TruncatedBytes != 0 {
		t.Errorf("recovery stats = %+v", st)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	// Room for 4 frames per segment.
	opts := Options{SegmentBytes: segmentHeaderSize + 4*recordFrameSize}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(19)
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 { // ceil(19/4)
		t.Errorf("segments = %v, want 5 files", segs)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkHistory(t, s2, want, "reopened")
	// Appending after reopen continues the same log.
	extra := logstore.Record{Set: bitset.MaskOf(3), Count: 7}
	if err := s2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 20 {
		t.Errorf("Seq after append = %d, want 20", s2.Seq())
	}
	checkHistory(t, s2, append(want, extra), "after append")
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	recs := testRecords(37)
	opts := Options{SegmentBytes: segmentHeaderSize + 5*recordFrameSize}

	one := t.TempDir()
	s1, err := Open(one, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s1.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()

	batch := t.TempDir()
	s2, err := Open(batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	r1, err := Open(one, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := Open(batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	checkHistory(t, r1, recs, "appended one by one")
	checkHistory(t, r2, recs, "appended as a batch")
}

func TestFsyncInterval(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range testRecords(10) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// The group-committer must cover all 10 appends within a few periods.
	deadline := time.Now().Add(2 * time.Second)
	for s.SyncedSeq() != 10 {
		if time.Now().After(deadline) {
			t.Fatalf("SyncedSeq = %d after waiting, want 10", s.SyncedSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFsyncOSExplicitSync(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncOS})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range testRecords(5) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.SyncedSeq() != 0 {
		t.Errorf("SyncedSeq = %d before Sync, want 0", s.SyncedSeq())
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.SyncedSeq() != 5 {
		t.Errorf("SyncedSeq = %d after Sync, want 5", s.SyncedSeq())
	}
}

func TestRejectsInvalidAndClosed(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(logstore.Record{Set: 0, Count: 1}); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("empty-set append: err = %v, want invalid input", err)
	}
	if err := s.Append(logstore.Record{Set: 1, Count: 0}); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("zero-count append: err = %v, want invalid input", err)
	}
	if s.Len() != 0 {
		t.Errorf("invalid records counted: Len = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(logstore.Record{Set: 1, Count: 1}); err == nil {
		t.Error("append on closed store accepted")
	}
	if err := s.Close(); err == nil {
		t.Error("double close accepted")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(8)
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed append leaves a partial frame at the end.
	path := segmentPath(dir, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	debris := []byte{16, 0, 0, 0, 0xde, 0xad} // length prefix + partial CRC
	if _, err := f.Write(debris); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	checkHistory(t, s2, want, "recovered")
	if tb := s2.RecoveryStats().TruncatedBytes; tb != int64(len(debris)) {
		t.Errorf("TruncatedBytes = %d, want %d", tb, len(debris))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if wantSize := int64(segmentHeaderSize + 8*recordFrameSize); fi.Size() != wantSize {
		t.Errorf("segment size after repair = %d, want %d", fi.Size(), wantSize)
	}
}

func TestMidLogCorruptionSurfaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(8) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the segment: the frame's CRC
	// fails while valid frames follow — truncation would lose records, so
	// recovery must refuse.
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segmentHeaderSize + 2*recordFrameSize + frameHeaderSize + 3
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("open over mid-log corruption: err = %v, want store corrupt", err)
	}
}

func TestHeaderlessStubDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: segmentHeaderSize + 4*recordFrameSize})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(6) // spans two segments
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash during rotation can leave the next segment as a short,
	// headerless stub.
	if err := os.WriteFile(segmentPath(dir, 3), []byte{'D', 'R', 'M'}, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(segmentPath(dir, 3)); !errors.Is(err, os.ErrNotExist) {
		t.Error("stub segment not removed")
	}
	checkHistory(t, s2, want, "recovered")
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in     string
		policy FsyncPolicy
		d      time.Duration
		ok     bool
	}{
		{"always", FsyncAlways, 0, true},
		{"os", FsyncOS, 0, true},
		{"interval", FsyncInterval, 0, true},
		{"interval=20ms", FsyncInterval, 20 * time.Millisecond, true},
		{"interval=0s", 0, 0, false},
		{"interval=banana", 0, 0, false},
		{"never", 0, 0, false},
	}
	for _, c := range cases {
		p, d, err := ParseFsync(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseFsync(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (p != c.policy || d != c.d) {
			t.Errorf("ParseFsync(%q) = %v, %v", c.in, p, d)
		}
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	// fsx temp litter and unrelated files must not confuse recovery.
	if err := os.WriteFile(filepath.Join(dir, ".snapshot.json.tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(logstore.Record{Set: 1, Count: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMemoryFlat pins recovery's memory to the ledger, not the log:
// over the same few belongs-to sets, the bytes Open allocates for a log
// ten times longer stay flat. Reading segments whole or keeping every
// record would grow them tenfold.
func TestOpenMemoryFlat(t *testing.T) {
	small, large := 100_000, 1_000_000
	if testing.Short() {
		small, large = 10_000, 100_000
	}
	openAllocs := func(n int) uint64 {
		dir := t.TempDir()
		opts := Options{Fsync: FsyncOS}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(benchRecords(n)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		best := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s, err := Open(dir, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Seq(); got != uint64(n) {
				t.Fatalf("recovered seq %d, want %d", got, n)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	a, b := openAllocs(small), openAllocs(large)
	t.Logf("Open allocated %d B over %d records, %d B over %d", a, small, b, large)
	if b > 2*a {
		t.Fatalf("Open allocated %d B over %d records but %d B over %d: recovery memory grows with the log", b, large, a, small)
	}
}

// TestReplayStaysCompacted: ForEach replays the compacted form of what a
// store holds, whichever path the records came in by — Append,
// AppendBatch, IngestFrames — and across Snapshot and reopen. A snapshot
// replaces the history it covers with its compacted form (clamping TTL
// buckets a revoke ate into), so each store's model does too.
func TestReplayStaysCompacted(t *testing.T) {
	opts := Options{SegmentBytes: segmentHeaderSize + 8*recordFrameSize}
	ldir, fdir := t.TempDir(), t.TempDir()
	leader, err := Open(ldir, opts)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lmodel, fmodel []logstore.Record // follower: IngestFrames of the leader's frames
	appended := func(recs ...logstore.Record) {
		lmodel = append(lmodel, recs...)
		fmodel = append(fmodel, recs...)
	}
	check := func(stage string) {
		t.Helper()
		shipAll(t, leader, follower, 64)
		for _, c := range []struct {
			name  string
			s     *Store
			model []logstore.Record
		}{{"leader", leader, lmodel}, {"follower", follower, fmodel}} {
			if got, want := collect(t, c.s), logstore.Compact(c.model); !slices.Equal(got, want) {
				t.Fatalf("%s: %s ForEach = %+v\nwant compacted %+v", stage, c.name, got, want)
			}
		}
	}
	appendEach := func(recs []logstore.Record) {
		t.Helper()
		for _, r := range recs {
			if err := leader.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		appended(recs...)
	}

	appendEach(lifecycleRecords())
	check("append")
	batch := testRecords(30)
	if err := leader.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	appended(batch...)
	check("append batch")
	ttlSet := bitset.MaskOf(3)
	appendEach([]logstore.Record{
		{Set: ttlSet, Count: 10, Meta: logstore.Meta{Expiry: 9000}},
		{Kind: logstore.KindRevoke, Set: ttlSet, Count: 8},
	})
	check("revoke into a TTL bucket")
	if _, err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	lmodel = logstore.Compact(lmodel)
	check("leader snapshot")
	appendEach([]logstore.Record{{Set: ttlSet, Count: 20}, {Kind: logstore.KindTransfer, Set: ttlSet, Count: 4}})
	if err := leader.AppendBatch(testRecords(7)); err != nil {
		t.Fatal(err)
	}
	appended(testRecords(7)...)
	check("after the leader snapshot")
	if _, err := follower.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fmodel = logstore.Compact(fmodel)
	check("follower snapshot")

	for _, s := range []*Store{leader, follower} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if leader, err = Open(ldir, opts); err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if follower, err = Open(fdir, opts); err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	check("reopen")
	appendEach(testRecords(3))
	check("append after reopen")
}
