package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
)

// lifecycleRecords is a sound mixed-kind sequence: plain issues (v1
// frames), a TTL issue, a revoke, a transfer, and an expire debiting
// the TTL bucket (v2 frames).
func lifecycleRecords() []logstore.Record {
	set := bitset.MaskOf(0, 1)
	return []logstore.Record{
		{Set: set, Count: 10},
		{Set: set, Count: 10},
		{Kind: logstore.KindIssue, Set: set, Count: 7, Meta: logstore.Meta{Expiry: 5000}},
		{Kind: logstore.KindRevoke, Set: set, Count: 5},
		{Kind: logstore.KindTransfer, Set: set, Count: 4},
		{Kind: logstore.KindExpire, Set: set, Count: 7, Meta: logstore.Meta{Expiry: 5000}},
	}
}

func TestLifecycleRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := lifecycleRecords()
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
	checkHistory(t, s, want, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery over mixed-kind frames: %v", err)
	}
	defer s2.Close()
	checkHistory(t, s2, want, "reopened")
	led := s2.LedgerSnapshot()
	set := bitset.MaskOf(0, 1)
	if n := led.Net(set); n != 15 { // 10+10+7 − 5 − 7
		t.Errorf("recovered net = %d, want 15", n)
	}
	if x := led.Transferred(set); x != 4 {
		t.Errorf("recovered transfer total = %d, want 4", x)
	}
}

func TestLifecycleSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := lifecycleRecords()
	for _, r := range recs[:4] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot over signed deltas: %v", err)
	}
	for _, r := range recs[4:] {
		if err := s.Append(r); err != nil {
			t.Fatalf("append after snapshot %+v: %v", r, err)
		}
	}
	set := bitset.MaskOf(0, 1)
	wantNet := s.LedgerSnapshot().Net(set)
	wantXfer := s.LedgerSnapshot().Transferred(set)
	wantDue := len(s.LedgerSnapshot().Due(1 << 40))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery from v2 snapshot + tail: %v", err)
	}
	defer s2.Close()
	led := s2.LedgerSnapshot()
	if led.Net(set) != wantNet || led.Transferred(set) != wantXfer {
		t.Errorf("recovered ledger (net %d, xfer %d), want (%d, %d)",
			led.Net(set), led.Transferred(set), wantNet, wantXfer)
	}
	if got := len(led.Due(1 << 40)); got != wantDue {
		t.Errorf("recovered due buckets = %d, want %d", got, wantDue)
	}
}

// segmentLifecycleRecords is what writeLifecycleSegment appends: two
// issues, a revoke, one more issue.
func segmentLifecycleRecords() []logstore.Record {
	set := bitset.MaskOf(0, 1)
	return []logstore.Record{
		{Set: set, Count: 10},
		{Set: set, Count: 10},
		{Kind: logstore.KindRevoke, Set: set, Count: 5},
		{Set: set, Count: 3},
	}
}

// writeLifecycleSegment appends segmentLifecycleRecords, closes the
// store, and returns the segment path plus the byte offset of the
// revoke's v2 frame. Layout: 16-byte header, two 24-byte v1 frames, the
// 33-byte revoke frame, one trailing 24-byte frame.
func writeLifecycleSegment(t *testing.T) (string, int) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range segmentLifecycleRecords() {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return segmentPath(dir, 1), segmentHeaderSize + 2*recordFrameSize
}

// rewriteFrame applies mutate to the payload of the frame at off and
// recomputes its CRC, so the corruption is semantic (kind byte, count
// sign), not detectable as bit rot.
func rewriteFrame(t *testing.T, path string, off int, mutate func(payload []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	length := binary.LittleEndian.Uint32(data[off : off+4])
	payload := data[off+frameHeaderSize : off+frameHeaderSize+int(length)]
	mutate(payload)
	binary.LittleEndian.PutUint32(data[off+4:off+8], crc32.Checksum(payload, referenceCastagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownKindByteRefused plants a CRC-valid frame whose kind byte
// names no known lifecycle kind mid-log: recovery must answer a typed
// store-corrupt error — never panic, never silently skip the frame.
func TestUnknownKindByteRefused(t *testing.T) {
	path, off := writeLifecycleSegment(t)
	rewriteFrame(t, path, off, func(payload []byte) { payload[0] = 9 })
	_, err := Open(segDir(path), Options{})
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("open over unknown kind byte: err = %v, want store corrupt", err)
	}
}

// TestKindSignMismatchRefused flips a revoke frame's stored effective
// count positive (CRC fixed up): the sign contradicts the kind byte,
// which recovery must treat as corruption.
func TestKindSignMismatchRefused(t *testing.T) {
	path, off := writeLifecycleSegment(t)
	rewriteFrame(t, path, off, func(payload []byte) {
		stored := int64(binary.LittleEndian.Uint64(payload[9:17]))
		binary.LittleEndian.PutUint64(payload[9:17], uint64(-stored))
	})
	_, err := Open(segDir(path), Options{})
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("open over kind/count sign mismatch: err = %v, want store corrupt", err)
	}
}

// TestUnsoundTailRefused rewrites the revoke's debit deeper than the
// credits before it (CRC valid, frame well-formed): the append-time
// soundness invariant no longer holds on disk — tampering — so
// recovery must refuse rather than replay a negative-net ledger.
func TestUnsoundTailRefused(t *testing.T) {
	path, off := writeLifecycleSegment(t)
	rewriteFrame(t, path, off, func(payload []byte) {
		stored := int64(-1000)
		binary.LittleEndian.PutUint64(payload[9:17], uint64(stored))
	})
	_, err := Open(segDir(path), Options{})
	if !errors.Is(err, drmerr.ErrStoreCorrupt) {
		t.Fatalf("open over unsound ledger: err = %v, want store corrupt", err)
	}
}

// TestTornLedgerFrameTruncated leaves a partial v2 frame at the tail: a
// torn lifecycle append repairs exactly like a torn issue append.
func TestTornLedgerFrameTruncated(t *testing.T) {
	path, _ := writeLifecycleSegment(t)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	debris := []byte{ledgerPayloadSize, 0, 0, 0, 0xca, 0xfe, byte(logstore.KindRevoke)}
	if _, err := f.Write(debris); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := Open(segDir(path), Options{})
	if err != nil {
		t.Fatalf("recovery over torn ledger frame: %v", err)
	}
	defer s.Close()
	checkHistory(t, s, segmentLifecycleRecords(), "recovered")
	if tb := s.RecoveryStats().TruncatedBytes; tb != int64(len(debris)) {
		t.Errorf("TruncatedBytes = %d, want %d", tb, len(debris))
	}
}

// segDir recovers the WAL directory from a segment path.
func segDir(path string) string {
	return path[:len(path)-len("/"+segmentName(1))]
}

// FuzzParseFrame hammers the frame parser with arbitrary bytes. Its
// verdict must be referenceParseFrame's, CRC through hash/crc32
// included, and every frame it accepts must re-encode through
// appendFrame to exactly the bytes it consumed. The seeds past the
// lifecycle frames are v1 frames that a CRC check alone would pass:
// an empty set, a zero and a negative count, and a v2 plain issue.
func FuzzParseFrame(f *testing.F) {
	var valid []byte
	for _, r := range lifecycleRecords() {
		f.Add(appendFrame(nil, r))
		valid = appendFrame(valid, r)
	}
	f.Add(valid)
	f.Add([]byte{16, 0, 0, 0})
	f.Add([]byte{25, 0, 0, 0, 1, 2, 3, 4, 9})
	for _, set := range []uint64{0, 3} {
		for _, count := range []int64{7, 0, -7} {
			f.Add(sealedRecordFrame(set, count))
		}
	}
	plainV2 := appendFrame(nil, logstore.Record{Set: 3, Count: 7, Meta: logstore.Meta{Expiry: 1}})
	clear(plainV2[frameHeaderSize+17:])
	binary.LittleEndian.PutUint32(plainV2[4:8], crc32.Checksum(plainV2[frameHeaderSize:], referenceCastagnoli))
	f.Add(plainV2)
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, status := parseFrame(b)
		wantRec, wantN, wantStatus := referenceParseFrame(b)
		if status != wantStatus || n != wantN || rec != wantRec {
			t.Fatalf("parseFrame = %+v, %d, %d; reference = %+v, %d, %d", rec, n, status, wantRec, wantN, wantStatus)
		}
		if status == frameOK {
			if again := appendFrame(nil, rec); !bytes.Equal(again, b[:n]) {
				t.Fatalf("accepted frame % x re-encodes as % x", b[:n], again)
			}
		}
	})
}
