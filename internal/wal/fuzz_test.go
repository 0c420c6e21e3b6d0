package wal

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"

	"repro/internal/drmerr"
	"repro/internal/logstore"
)

// checkSnapshotDoc decodes data as recovery and follower bootstrap do and
// folds an accepted document's records into a ledger, as recovery does.
// Decoding ends in a document or a KindStoreCorrupt error; the fold
// refuses, if at all, with KindLedgerUnsound at the record Observe would,
// leaving the ledger Observe would.
func checkSnapshotDoc(t *testing.T, data []byte) {
	t.Helper()
	doc, err := decodeSnapshot(data, "fuzz")
	if err != nil {
		if doc != nil || drmerr.KindOf(err) != drmerr.KindStoreCorrupt {
			t.Fatalf("refused snapshot: doc %v, err %v (kind %v), want nil and store corrupt", doc, err, drmerr.KindOf(err))
		}
		return
	}
	if doc.CRC != doc.crcOf() || doc.Segment == 0 || doc.Offset < segmentHeaderSize {
		t.Fatalf("accepted snapshot with bad checksum or watermark: %+v", doc)
	}
	want, got := &logstore.Ledger{}, &logstore.Ledger{}
	fold := logstore.NewFold(got)
	for _, r := range doc.Records {
		if err := r.Validate(); err != nil {
			t.Fatalf("accepted snapshot with invalid record %+v: %v", r, err)
		}
		werr, gerr := want.Observe(r), fold.Observe(r)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("record %+v: fold error %v, Observe error %v", r, gerr, werr)
		}
		if gerr != nil {
			if drmerr.KindOf(gerr) != drmerr.KindLedgerUnsound {
				t.Fatalf("record %+v: fold refused with %v, want ledger unsound", r, gerr)
			}
			break
		}
	}
	fold.Flush()
	if !slices.Equal(got.Canonical(), want.Canonical()) {
		t.Fatalf("folded snapshot ledger %+v, Observe's %+v", got.Canonical(), want.Canonical())
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder that
// guards recovery and follower bootstrap: it must never panic (see
// checkSnapshotDoc). The checksum stops nearly every mutation at the
// door, so each input that parses as JSON is also re-sealed with its
// own CRC, which carries it on to the version, record and watermark
// checks and to the fold behind them.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, doc := range []snapshotDoc{
		{Version: snapshotVersion, Seq: 6, Segment: 1, Offset: segmentHeaderSize + 6*ledgerFrameSize, Records: lifecycleRecords()},
		{Version: 1, Seq: 2, Segment: 3, Offset: segmentHeaderSize, Records: testRecords(2)},
		{Version: snapshotVersion, Seq: 1, Segment: 1, Offset: segmentHeaderSize,
			Records: []logstore.Record{{Kind: logstore.KindRevoke, Set: 1, Count: 1}}},
	} {
		doc.CRC = doc.crcOf()
		data, err := json.Marshal(&doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":2,"seq":1,"segment":0,"offset":3,"records":[{"kind":"expire","set":1,"count":-4}],"crc":1}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotDoc(t, data)
		var doc snapshotDoc
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		doc.CRC = doc.crcOf()
		resealed, err := json.Marshal(&doc)
		if err != nil {
			return
		}
		checkSnapshotDoc(t, resealed)
	})
}

// FuzzIngestFrames ships an arbitrary window, starting at an arbitrary
// cursor, into a fresh follower. The window either lands — its bytes
// appended verbatim to the segment the cursor names, Seq advanced by its
// frames, and the same Seq and ledger recovered on reopen — or is
// refused with a typed error, leaving Seq and every segment byte as they
// were.
func FuzzIngestFrames(f *testing.F) {
	var window []byte
	for _, r := range lifecycleRecords() {
		window = appendFrame(window, r)
	}
	unsound := appendFrame(nil, logstore.Record{Kind: logstore.KindRevoke, Set: 1, Count: 1})
	f.Add(window, uint64(1), int64(segmentHeaderSize), uint64(0))
	f.Add(window, uint64(2), int64(segmentHeaderSize), uint64(0)) // opens the next segment
	f.Add(window[:len(window)-3], uint64(1), int64(segmentHeaderSize), uint64(0))
	f.Add(window, uint64(1), int64(segmentHeaderSize), uint64(3))
	f.Add(unsound, uint64(1), int64(segmentHeaderSize), uint64(0))
	f.Add([]byte{}, uint64(1), int64(segmentHeaderSize), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seg uint64, off int64, seq uint64) {
		// A fresh follower: the header-only first segment Open creates,
		// written without Open's fsyncs so the fuzzer runs quickly.
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), encodeSegmentHeader(0), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Fsync: FsyncOS}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := segmentBytesOf(t, dir)
		start := Cursor{Segment: seg, Offset: off, Seq: seq}
		next, recs, err := s.IngestFrames(start, data)
		if err != nil {
			defer s.Close()
			if k := drmerr.KindOf(err); k != drmerr.KindStoreCorrupt && k != drmerr.KindInvalidInput {
				t.Fatalf("refused window: err %v (kind %v), want store corrupt or invalid input", err, k)
			}
			if s.Seq() != 0 || !maps.EqualFunc(segmentBytesOf(t, dir), before, bytes.Equal) {
				t.Fatalf("refused window moved the follower: seq %d", s.Seq())
			}
			return
		}
		if want := (Cursor{Segment: seg, Offset: off + int64(len(data)), Seq: uint64(len(recs))}); next != want || s.Seq() != want.Seq {
			t.Fatalf("landed window: next %v, seq %d, want %v", next, s.Seq(), want)
		}
		if got := segmentBytesOf(t, dir)[segmentName(seg)]; !bytes.Equal(got, append(encodeSegmentHeader(0), data...)) {
			t.Fatalf("segment %d holds %d bytes, not the header and the window's %d", seg, len(got), len(data))
		}
		want := s.LedgerSnapshot().Canonical()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("reopening a landed window: %v", err)
		}
		defer s.Close()
		if s.Seq() != uint64(len(recs)) || !slices.Equal(s.LedgerSnapshot().Canonical(), want) {
			t.Fatalf("reopened follower: seq %d, want %d, or ledger differs", s.Seq(), len(recs))
		}
	})
}
