package wal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/drmerr"
	"repro/internal/fsx"
	"repro/internal/logstore"
	"repro/internal/trace"
)

// snapshotFile is the checkpoint document's name inside the WAL dir.
// There is at most one; installs atomically replace it (fsx).
const snapshotFile = "snapshot.json"

// snapshotDoc is the persisted checkpoint: the log compacted to per-set
// counts (at most 2^{N_k}−1 entries per overlap group) plus the
// watermark (Segment, Offset, Seq) up to which those counts aggregate
// the segment stream. CRC is CRC32C over the canonical binary rendering
// of the other fields (crcOf), so a torn or bit-rotted snapshot is
// detected rather than trusted.
type snapshotDoc struct {
	Version int               `json:"version"`
	Seq     uint64            `json:"seq"`
	Segment uint64            `json:"segment"`
	Offset  int64             `json:"offset"`
	Records []logstore.Record `json:"records"`
	CRC     uint32            `json:"crc"`
}

// snapshotVersion is the version new snapshots are written at. Version
// 1 (pre-lifecycle, kindless records) remains loadable; its CRC covers
// only (set, count) per record, version 2 also covers kind and expiry.
const snapshotVersion = 2

// crcOf checksums the semantic content of a snapshot document, using
// the rendering of the document's own version.
func (d *snapshotDoc) crcOf() uint32 {
	buf := make([]byte, 0, 24+33*len(d.Records))
	buf = binary.LittleEndian.AppendUint64(buf, d.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, d.Segment)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Offset))
	for _, r := range d.Records {
		if d.Version >= snapshotVersion {
			buf = append(buf, byte(r.Kind))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Set))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Count))
		if d.Version >= snapshotVersion {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Expiry))
		}
	}
	return crc32.Checksum(buf, castagnoli)
}

// loadSnapshot reads and verifies the checkpoint, returning nil when the
// store has none.
func loadSnapshot(dir string) (*snapshotDoc, error) {
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open snapshot: %w", err)
	}
	return decodeSnapshot(data, path)
}

// decodeSnapshot verifies and decodes raw snapshot document bytes; path
// only labels errors. InstallBootstrap validates shipped snapshots with
// the same code that guards local recovery.
func decodeSnapshot(data []byte, path string) (*snapshotDoc, error) {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, drmerr.Wrapf(drmerr.KindStoreCorrupt, "wal.snapshot", err,
			"wal: %s: undecodable snapshot", path)
	}
	if doc.Version != 1 && doc.Version != snapshotVersion {
		return nil, drmerr.New(drmerr.KindStoreCorrupt, "wal.snapshot",
			"wal: %s: unsupported snapshot version %d", path, doc.Version)
	}
	if got := doc.crcOf(); got != doc.CRC {
		return nil, drmerr.New(drmerr.KindStoreCorrupt, "wal.snapshot",
			"wal: %s: snapshot checksum mismatch (stored %08x, computed %08x)", path, doc.CRC, got)
	}
	for _, r := range doc.Records {
		if err := r.Validate(); err != nil {
			return nil, drmerr.Wrapf(drmerr.KindStoreCorrupt, "wal.snapshot", err,
				"wal: %s: invalid snapshot record", path)
		}
	}
	if doc.Segment == 0 || doc.Offset < segmentHeaderSize {
		return nil, drmerr.New(drmerr.KindStoreCorrupt, "wal.snapshot",
			"wal: %s: nonsensical watermark (segment %d, offset %d)", path, doc.Segment, doc.Offset)
	}
	return &doc, nil
}

// SnapshotInfo describes an installed checkpoint.
type SnapshotInfo struct {
	// Records is the compacted entry count; Seq the records it covers.
	Records int    `json:"records"`
	Seq     uint64 `json:"seq"`
	// Segment and Offset are the watermark replay resumes from.
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
	// Duration is the checkpoint's wall time.
	Duration time.Duration `json:"duration_ns"`
}

// Snapshot checkpoints the store: fsync the active segment (the
// watermark invariant — the watermark never points past durable bytes),
// write the ledger's canonical form as the new snapshot document,
// install it atomically, and retire fully covered segments in the
// background.
// Appends proceed as soon as the method returns; the store stays open
// throughout.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	return s.SnapshotContext(context.Background())
}

// SnapshotContext is Snapshot with a context for tracing: a traced
// request records a "wal.snapshot" span (with compacted record count and
// watermark attrs) covering the fsync, canonical form, and atomic install.
// The context does not cancel a snapshot mid-install.
func (s *Store) SnapshotContext(ctx context.Context) (SnapshotInfo, error) {
	ctx, sp := trace.Start(ctx, "wal.snapshot")
	s.mu.Lock()
	info, err := s.snapshotLocked(ctx)
	s.mu.Unlock()
	if sp != nil {
		sp.SetInt("records", int64(info.Records))
		sp.SetInt("seq", int64(info.Seq))
		sp.Fail(err)
		sp.End()
	}
	return info, err
}

func (s *Store) snapshotLocked(ctx context.Context) (SnapshotInfo, error) {
	if err := s.stateErrLocked(); err != nil {
		return SnapshotInfo{}, err
	}
	if s.snapSeg != 0 && s.seq == s.snapSeq {
		// Nothing appended since the installed snapshot: it already is
		// this checkpoint, so an idle drain writes and syncs nothing.
		return SnapshotInfo{Records: s.snapLen, Seq: s.snapSeq, Segment: s.snapSeg, Offset: s.snapOff}, nil
	}
	start := time.Now()
	if err := s.syncLocked(ctx); err != nil {
		return SnapshotInfo{}, err
	}
	merged := s.ledger.Canonical()
	doc := snapshotDoc{Version: snapshotVersion, Seq: s.seq, Segment: s.segIdx, Offset: s.size, Records: merged}
	doc.CRC = doc.crcOf()
	path := filepath.Join(s.dir, snapshotFile)
	if err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&doc)
	}); err != nil {
		// A failed install leaves the previous snapshot intact; the store
		// is still consistent, so this is not a poisoning failure.
		return SnapshotInfo{}, fmt.Errorf("wal: installing snapshot: %w", err)
	}
	// Compaction clamps TTL buckets that revokes partially consumed
	// (logstore.Compact's earliest-first budget rule); rebuilding the
	// ledger from the merged records keeps this store's expiry schedule
	// identical to the one a recovery from the new snapshot would build.
	s.ledger = *logstore.LedgerOf(merged)
	s.snapLen = len(merged)
	s.snapSeq = s.seq
	s.snapSeg = s.segIdx
	s.snapOff = s.size
	s.sinceSnap = 0
	s.lastSnap = time.Now()
	info := SnapshotInfo{
		Records: len(merged), Seq: s.seq,
		Segment: s.segIdx, Offset: s.size,
		Duration: time.Since(start),
	}
	M.Snapshots.Inc()
	M.SnapshotSeconds.Observe(info.Duration.Seconds())
	M.SnapshotRecords.Set(int64(len(merged)))
	M.SnapshotUnix.Set(s.lastSnap.Unix())
	// Online compaction: segments wholly below the watermark are now
	// redundant; retire them without blocking appenders.
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		s.Compact()
	}()
	return info, nil
}

// LastSnapshot returns the in-process time of the latest checkpoint
// (zero if none was taken by this process).
func (s *Store) LastSnapshot() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSnap
}

// SnapshotSeq returns the watermark sequence of the installed snapshot.
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// Compact removes segment files wholly covered by the installed
// snapshot — every segment with an index below the watermark segment —
// and returns how many were retired. Snapshot schedules this in the
// background; calling it directly is safe and idempotent.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	watermark := s.snapSeg
	s.mu.Unlock()
	if watermark == 0 {
		return 0, nil
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, idx := range segs {
		if idx >= watermark {
			break
		}
		if err := os.Remove(segmentPath(s.dir, idx)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, fmt.Errorf("wal: retiring segment %d: %w", idx, err)
		}
		removed++
	}
	if removed > 0 {
		if err := fsx.SyncDir(s.dir); err != nil {
			return removed, err
		}
		M.SegmentsCompacted.Add(int64(removed))
	}
	s.updateSegmentsGauge()
	return removed, nil
}
