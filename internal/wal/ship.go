package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/drmerr"
	"repro/internal/fsx"
	"repro/internal/logstore"
)

// Log shipping (DESIGN.md §13): a follower mirrors a leader's WAL
// byte-for-byte by pulling durable frame ranges from a (segment, offset,
// seq) cursor. The leader side is ReadFrames + Bootstrap; the follower
// side is InstallBootstrap + IngestFrames. Because the mirror is
// byte-identical from the bootstrap watermark on, a follower restart —
// and promotion to leader — goes through the ordinary Open recovery
// path: there is no replica-specific persistence format to reason about.
//
// Shipping invariants:
//
//   - Only durable bytes ship. ReadFrames never serves past the fsync
//     boundary of the active segment, so a torn tail on the leader (a
//     crashed append's debris) is invisible to followers: the follower
//     stops at the watermark rather than ingesting the torn frame.
//   - Only whole, parse-valid frames ship. The durable boundary is
//     frame-aligned by construction (syncs cover completed writes); a
//     frame that fails to parse below it is surfaced as store corruption,
//     never forwarded.
//   - A batch lands exactly at the follower's frontier or not at all.
//     IngestFrames verifies the start cursor against (segIdx, size, seq)
//     — with a one-step rotation when the batch opens the next segment —
//     and rejects the whole batch if any frame is invalid or the ledger
//     refuses the sequence, so a confused leader cannot desynchronize a
//     follower silently.

// Cursor is a replication watermark into the segment stream: Segment and
// Offset locate the next byte to read, Seq counts the records encoded
// before that byte. The zero Cursor is invalid; tailing a store from its
// genesis starts at {Segment: 1, Offset: segment header size, Seq: 0}.
type Cursor struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
	Seq     uint64 `json:"seq"`
}

// String renders the cursor for logs and errors.
func (c Cursor) String() string {
	return fmt.Sprintf("(seg %d, off %d, seq %d)", c.Segment, c.Offset, c.Seq)
}

// Before reports whether c is strictly behind other in the segment
// stream.
func (c Cursor) Before(other Cursor) bool {
	if c.Segment != other.Segment {
		return c.Segment < other.Segment
	}
	return c.Offset < other.Offset
}

// StartCursor is where tailing a store with no snapshot begins.
func StartCursor() Cursor {
	return Cursor{Segment: 1, Offset: segmentHeaderSize}
}

// ErrCompacted reports a ship cursor pointing below the leader's
// installed snapshot watermark: the segment it names has been (or may at
// any moment be) retired by compaction. The follower's only move is to
// discard its mirror and re-bootstrap from the current snapshot.
var ErrCompacted = errors.New("wal: ship cursor below snapshot watermark (segment compacted)")

// Batch is one shipped frame range. Start is where Data begins — equal
// to the requested cursor unless the read advanced across one or more
// sealed segment boundaries — and Next is the cursor after Data. Data
// never spans a segment boundary. An empty Data with Next == Start
// means the follower is caught up to the leader's durable frontier.
type Batch struct {
	Start   Cursor `json:"start"`
	Next    Cursor `json:"next"`
	Records int    `json:"records"`
	Data    []byte `json:"data,omitempty"`
}

// DurableCursor returns the store's durable frontier: the cursor just
// past the last fsync-covered byte. ReadFrames never serves beyond it.
func (s *Store) DurableCursor() Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Cursor{Segment: s.segIdx, Offset: s.syncedSize, Seq: s.synced}
}

// ReadFrames reads up to maxBytes of durable, whole-frame bytes starting
// at cur. It works on failed (poisoned) and closed stores — the read
// path is what a failover drains after the leader's write path dies — and
// returns ErrCompacted (wrapped) when cur falls below the snapshot
// watermark. maxBytes is clamped to at least one maximal frame.
func (s *Store) ReadFrames(cur Cursor, maxBytes int) (Batch, error) {
	if maxBytes < ledgerFrameSize {
		maxBytes = ledgerFrameSize
	}
	for {
		s.mu.Lock()
		segIdx, syncedSize, syncedSeq, snapSeg := s.segIdx, s.syncedSize, s.synced, s.snapSeg
		s.mu.Unlock()
		if cur.Segment == 0 || cur.Offset < segmentHeaderSize {
			return Batch{}, drmerr.New(drmerr.KindInvalidInput, "wal.ship",
				"wal: invalid ship cursor %v", cur)
		}
		if snapSeg != 0 && cur.Segment < snapSeg {
			return Batch{}, fmt.Errorf("wal: ship cursor %v: %w", cur, ErrCompacted)
		}
		if cur.Segment > segIdx {
			return Batch{}, drmerr.New(drmerr.KindInvalidInput, "wal.ship",
				"wal: ship cursor %v beyond active segment %d", cur, segIdx)
		}
		var limit int64
		if cur.Segment == segIdx {
			limit = syncedSize
		} else {
			// A sealed segment is durable in full (rotation fsyncs before
			// closing); its size is the limit. Vanishing under us means
			// compaction retired it between the watermark check and here.
			fi, err := os.Stat(segmentPath(s.dir, cur.Segment))
			if errors.Is(err, os.ErrNotExist) {
				return Batch{}, fmt.Errorf("wal: ship cursor %v: %w", cur, ErrCompacted)
			}
			if err != nil {
				return Batch{}, fmt.Errorf("wal: ship read: %w", err)
			}
			limit = fi.Size()
		}
		if cur.Offset > limit {
			return Batch{}, drmerr.New(drmerr.KindInvalidInput, "wal.ship",
				"wal: ship cursor %v beyond durable boundary %d of segment %d", cur, limit, cur.Segment)
		}
		if cur.Offset == limit {
			if cur.Segment < segIdx {
				cur = Cursor{Segment: cur.Segment + 1, Offset: segmentHeaderSize, Seq: cur.Seq}
				continue
			}
			// Caught up to the durable frontier; the cursor's record count
			// must agree with ours or the follower is tailing a different
			// history (e.g. a re-created leader directory).
			if cur.Seq != syncedSeq {
				return Batch{}, drmerr.New(drmerr.KindInvalidInput, "wal.ship",
					"wal: ship cursor %v at durable frontier but synced seq is %d (divergent history?)", cur, syncedSeq)
			}
			return Batch{Start: cur, Next: cur}, nil
		}
		n := limit - cur.Offset
		if n > int64(maxBytes) {
			n = int64(maxBytes)
		}
		buf := make([]byte, n)
		f, err := os.Open(segmentPath(s.dir, cur.Segment))
		if errors.Is(err, os.ErrNotExist) {
			return Batch{}, fmt.Errorf("wal: ship cursor %v: %w", cur, ErrCompacted)
		}
		if err != nil {
			return Batch{}, fmt.Errorf("wal: ship read: %w", err)
		}
		rn, err := f.ReadAt(buf, cur.Offset)
		f.Close()
		if err != nil && !(err == io.EOF && int64(rn) == n) {
			return Batch{}, fmt.Errorf("wal: ship read segment %d: %w", cur.Segment, err)
		}
		// Trim to whole frames. A short parse at the window edge just means
		// maxBytes cut a frame; a short or corrupt parse at the durable
		// boundary is damage we must not forward.
		windowEdge := cur.Offset+n < limit
		var off, recs int
		for off < len(buf) {
			_, fn, status := parseFrame(buf[off:])
			if status == frameOK {
				off += fn
				recs++
				continue
			}
			if status == frameShort && windowEdge {
				break
			}
			return Batch{}, drmerr.New(drmerr.KindStoreCorrupt, "wal.ship",
				"wal: segment %d: invalid frame at durable offset %d", cur.Segment, cur.Offset+int64(off))
		}
		next := Cursor{Segment: cur.Segment, Offset: cur.Offset + int64(off), Seq: cur.Seq + uint64(recs)}
		return Batch{Start: cur, Next: next, Records: recs, Data: buf[:off]}, nil
	}
}

// IngestFrames appends a shipped batch to a follower store as raw frame
// bytes, keeping the mirror byte-identical to the leader. start must
// name the follower's exact frontier (segIdx, size, seq) — or open the
// next segment at its header boundary, in which case the follower
// rotates first, reproducing the leader's segment layout. Every frame is
// parse-validated and the whole batch is admitted by the lifecycle
// ledger before any byte is written; a refused batch leaves the store
// untouched. The decoded records are returned so the caller can keep
// derived state (headroom cache, stats) warm without re-reading the log.
func (s *Store) IngestFrames(start Cursor, data []byte) (next Cursor, recs []logstore.Record, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stateErrLocked(); err != nil {
		return start, nil, err
	}
	var off int
	for off < len(data) {
		rec, n, status := parseFrame(data[off:])
		if status != frameOK {
			return start, nil, drmerr.New(drmerr.KindStoreCorrupt, "wal.ingest",
				"wal: shipped batch: invalid frame at byte %d of %d", off, len(data))
		}
		recs = append(recs, rec)
		off += n
	}
	rotate := false
	switch {
	case start.Segment == s.segIdx && start.Offset == s.size && start.Seq == s.seq:
	case start.Segment == s.segIdx+1 && start.Offset == segmentHeaderSize && start.Seq == s.seq:
		rotate = true
	default:
		return start, nil, drmerr.New(drmerr.KindInvalidInput, "wal.ingest",
			"wal: shipped batch start %v does not match local frontier (seg %d, off %d, seq %d)",
			start, s.segIdx, s.size, s.seq)
	}
	if err := s.ledger.ObserveAll(recs); err != nil {
		return start, nil, drmerr.Wrap(drmerr.KindStoreCorrupt, "wal.ingest", err)
	}
	if rotate {
		if err := s.rotateLocked(context.Background()); err != nil {
			return start, nil, err
		}
	}
	if len(data) > 0 {
		if err := s.writeLocked(data); err != nil {
			return start, nil, err
		}
		s.seq += uint64(len(recs))
		s.sinceSnap += len(recs)
		M.Appends.Add(int64(len(recs)))
	}
	if err := s.commitLocked(context.Background()); err != nil {
		return start, nil, err
	}
	return Cursor{Segment: s.segIdx, Offset: s.size, Seq: s.seq}, recs, nil
}

// BootstrapDoc carries everything a fresh follower needs to start
// tailing a leader without replaying its full history: the installed
// snapshot document, the watermark segment's byte prefix up to the
// watermark offset (header included, so the mirror's watermark segment
// is byte-complete for recovery), and the cursor tailing resumes from.
// A leader with no snapshot ships only the genesis cursor and the
// follower replicates every segment from the beginning.
type BootstrapDoc struct {
	Snapshot      []byte `json:"snapshot,omitempty"`
	SegmentPrefix []byte `json:"segment_prefix,omitempty"`
	Start         Cursor `json:"start"`
}

// Bootstrap captures the leader's installed snapshot and watermark
// segment prefix for shipping to a fresh follower. It retries if a
// concurrent snapshot+compaction moves the watermark mid-capture.
func (s *Store) Bootstrap() (*BootstrapDoc, error) {
	const attempts = 5
	var lastErr error
	for range attempts {
		path := filepath.Join(s.dir, snapshotFile)
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return &BootstrapDoc{Start: StartCursor()}, nil
		}
		if err != nil {
			return nil, fmt.Errorf("wal: bootstrap: %w", err)
		}
		doc, err := decodeSnapshot(data, path)
		if err != nil {
			return nil, err
		}
		prefix := make([]byte, doc.Offset)
		f, err := os.Open(segmentPath(s.dir, doc.Segment))
		if errors.Is(err, os.ErrNotExist) {
			// The snapshot advanced and compaction retired the segment we
			// just decoded a watermark into; re-read the newer snapshot.
			lastErr = err
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("wal: bootstrap: %w", err)
		}
		n, err := f.ReadAt(prefix, 0)
		f.Close()
		if err != nil && !(err == io.EOF && int64(n) == doc.Offset) {
			lastErr = fmt.Errorf("wal: bootstrap: reading segment %d prefix: %w", doc.Segment, err)
			continue
		}
		return &BootstrapDoc{
			Snapshot:      data,
			SegmentPrefix: prefix,
			Start:         Cursor{Segment: doc.Segment, Offset: doc.Offset, Seq: doc.Seq},
		}, nil
	}
	return nil, fmt.Errorf("wal: bootstrap: watermark kept moving: %w", lastErr)
}

// InstallBootstrap materializes a shipped BootstrapDoc into an empty
// directory, after which wal.Open recovers through the ordinary
// snapshot+tail path and IngestFrames continues from doc.Start. The doc
// is fully verified first — snapshot checksum, watermark consistency,
// segment header, and every prefix frame — so a corrupt bootstrap is
// refused before any file is written.
func InstallBootstrap(dir string, doc *BootstrapDoc) error {
	const op = "wal.bootstrap"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	if _, statErr := os.Stat(filepath.Join(dir, snapshotFile)); len(segs) > 0 || statErr == nil {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"wal: %s is not empty; refusing to install a bootstrap over existing state", dir)
	}
	if doc.Snapshot == nil {
		if doc.Start != StartCursor() {
			return drmerr.New(drmerr.KindInvalidInput, op,
				"wal: snapshotless bootstrap must start at genesis, got %v", doc.Start)
		}
		return nil
	}
	sdoc, err := decodeSnapshot(doc.Snapshot, "shipped snapshot")
	if err != nil {
		return err
	}
	want := Cursor{Segment: sdoc.Segment, Offset: sdoc.Offset, Seq: sdoc.Seq}
	if doc.Start != want {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"wal: bootstrap start %v disagrees with snapshot watermark %v", doc.Start, want)
	}
	if int64(len(doc.SegmentPrefix)) != sdoc.Offset {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"wal: bootstrap segment prefix is %d bytes, watermark offset is %d", len(doc.SegmentPrefix), sdoc.Offset)
	}
	baseSeq, ok := parseSegmentHeader(doc.SegmentPrefix)
	if !ok {
		return drmerr.New(drmerr.KindStoreCorrupt, op, "wal: bootstrap segment prefix has a bad header")
	}
	if baseSeq > sdoc.Seq {
		return drmerr.New(drmerr.KindStoreCorrupt, op,
			"wal: bootstrap segment base seq %d beyond watermark seq %d", baseSeq, sdoc.Seq)
	}
	frames := uint64(0)
	for off := segmentHeaderSize; off < len(doc.SegmentPrefix); {
		_, n, status := parseFrame(doc.SegmentPrefix[off:])
		if status != frameOK {
			return drmerr.New(drmerr.KindStoreCorrupt, op,
				"wal: bootstrap segment prefix: invalid frame at byte %d", off)
		}
		off += n
		frames++
	}
	if baseSeq+frames != sdoc.Seq {
		return drmerr.New(drmerr.KindStoreCorrupt, op,
			"wal: bootstrap segment prefix holds %d frames over base %d, watermark seq is %d", frames, baseSeq, sdoc.Seq)
	}
	segPath := segmentPath(dir, sdoc.Segment)
	if err := writeFileSynced(segPath, doc.SegmentPrefix); err != nil {
		return err
	}
	if err := fsx.WriteFileAtomic(filepath.Join(dir, snapshotFile), func(w io.Writer) error {
		_, err := w.Write(doc.Snapshot)
		return err
	}); err != nil {
		return fmt.Errorf("wal: installing bootstrap snapshot: %w", err)
	}
	return fsx.SyncDir(dir)
}

// writeFileSynced writes path with an fsync, as segment creation does.
func writeFileSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s: %w", path, err)
	}
	return f.Close()
}
