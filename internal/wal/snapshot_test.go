package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/obs"
)

// smallSeg keeps 4 frames per segment so snapshots and compaction have
// several files to work over.
var smallSeg = Options{SegmentBytes: segmentHeaderSize + 4*recordFrameSize}

func TestSnapshotAndTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(30)
	for _, r := range recs[:22] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 22 {
		t.Errorf("snapshot Seq = %d, want 22", info.Seq)
	}
	if info.Records >= 22 {
		t.Errorf("snapshot Records = %d, want compacted (< 22)", info.Records)
	}
	for _, r := range recs[22:] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wantSums := sums(recs)
	if !equalSums(sums(collect(t, s)), wantSums) {
		t.Error("live store sums diverge after snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Seq() != 30 {
		t.Errorf("recovered Seq = %d, want 30", s2.Seq())
	}
	st := s2.RecoveryStats()
	if st.SnapshotRecords != info.Records {
		t.Errorf("recovery SnapshotRecords = %d, want %d", st.SnapshotRecords, info.Records)
	}
	if st.TailRecords != 8 {
		t.Errorf("recovery TailRecords = %d, want 8", st.TailRecords)
	}
	if !equalSums(sums(collect(t, s2)), wantSums) {
		t.Error("recovered store sums diverge from full history")
	}
	// Appends continue past the recovered watermark.
	if err := s2.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 31 {
		t.Errorf("Seq after post-recovery append = %d, want 31", s2.Seq())
	}
}

func TestCompactionRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(20) // 5 segments
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.compactWG.Wait()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != s.snapSeg {
		t.Errorf("segments after compaction = %v, want only watermark segment %d", segs, s.snapSeg)
	}
	// Idempotent.
	if n, err := s.Compact(); err != nil || n != 0 {
		t.Errorf("second Compact = %d, %v; want 0, nil", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatalf("recovery after compaction failed: %v", err)
	}
	defer s2.Close()
	if s2.Seq() != 20 {
		t.Errorf("Seq = %d, want 20", s2.Seq())
	}
	if !equalSums(sums(collect(t, s2)), sums(recs)) {
		t.Error("compacted store sums diverge from full history")
	}
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := smallSeg
	opts.SnapshotEvery = 10
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range testRecords(25) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SnapshotSeq(); got != 20 {
		t.Errorf("SnapshotSeq = %d, want 20 (auto-snapshot every 10)", got)
	}
	if s.LastSnapshot().IsZero() {
		t.Error("LastSnapshot is zero after auto-snapshots")
	}
}

func TestCorruptSnapshotSurfaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(6) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	for name, mutate := range map[string]func([]byte) []byte{
		"garbage":   func(b []byte) []byte { return []byte("not json at all") },
		"torn":      func(b []byte) []byte { return b[:len(b)/2] },
		"bad crc":   func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"empty doc": func(b []byte) []byte { return []byte("{}\n") },
	} {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); !errors.Is(err, drmerr.ErrStoreCorrupt) {
			t.Errorf("%s snapshot: open err = %v, want store corrupt", name, err)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Sanity: restored snapshot opens fine.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestSnapshotMissingWatermarkSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(10) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.compactWG.Wait()
	watermark := s.snapSeg
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Deleting the watermark segment loses records the snapshot does not
	// cover; recovery must refuse rather than silently shorten the log.
	if err := os.Remove(segmentPath(dir, watermark)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, smallSeg); !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("open without watermark segment: err = %v, want store corrupt", err)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.Seq != 0 {
		t.Errorf("empty snapshot info = %+v", info)
	}
	if err := s.Append(logstore.Record{Set: 1, Count: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleSnapshotIsNoOp: a second snapshot with nothing appended since
// the first reports the installed checkpoint and leaves it alone — same
// inode, same bytes, no snapshot counted — as does the first snapshot
// after a reopen; one more append makes the next snapshot install again.
func TestIdleSnapshotIsNoOp(t *testing.T) {
	saved := M
	Instrument(obs.NewRegistry())
	defer func() { M = saved }()
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotFile)
	installed := func() (os.FileInfo, []byte) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi, b
	}
	s, err := Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(10) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	first, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	file, doc := installed()
	idle := func(s *Store, when string) {
		t.Helper()
		info, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		info.Duration, first.Duration = 0, 0
		if info != first {
			t.Errorf("%s: idle snapshot info %+v, installed %+v", when, info, first)
		}
		if got, gotDoc := installed(); !os.SameFile(got, file) || !bytes.Equal(gotDoc, doc) {
			t.Errorf("%s: idle snapshot reinstalled %s", when, path)
		}
		if n := M.Snapshots.Value(); n != 1 {
			t.Errorf("%s: drm_wal_snapshots_total = %d, want 1", when, n)
		}
	}
	idle(s, "second call")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, smallSeg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	idle(s, "after reopen")
	if err := s.Append(logstore.Record{Set: 1, Count: 2}); err != nil {
		t.Fatal(err)
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := installed(); info.Seq != 11 || os.SameFile(got, file) || M.Snapshots.Value() != 2 {
		t.Fatalf("snapshot after an append: %+v, %d snapshots, same file %v", info, M.Snapshots.Value(), os.SameFile(got, file))
	}
}
