// Package wal is the durable issuance-log subsystem: an append-only,
// segmented write-ahead log of issuance records with per-frame CRC32C
// checksums, a configurable fsync policy, checkpoint snapshots, crash
// recovery, and online segment compaction.
//
// Motivation (DESIGN.md §8): the paper's aggregate validation replays the
// entire offline issuance log to rebuild the validation tree, so at
// production scale log durability and restart time become the bottleneck.
// It is the only store a serving process opens: drmserver and
// internal/catalog refuse a JSONL log with a MigrationError. This
// store holds no per-record history in memory: the lifecycle ledger
// (logstore.Ledger, per-set net counts) is its only in-memory copy of the
// log, so memory and every replay are O(distinct sets), and restart work
// is O(distinct sets) + the tail since the last snapshot:
//
//   - Appends write binary frames (frame.go) into numbered segment files
//     (segment.go), rotating at Options.SegmentBytes, and fold each record
//     into the ledger.
//   - Durability follows Options.Fsync: FsyncAlways fsyncs before an
//     append is acknowledged; FsyncInterval group-commits — a background
//     syncer fsyncs at most once per Options.Interval, covering every
//     append in the window with one fsync; FsyncOS leaves flushing to the
//     page cache.
//   - A snapshot persists the ledger's canonical form (at most
//     2^{N_k}−1 sets per overlap group, Table 2's compacted form) plus
//     the watermark (segment, offset, seq) up to which it aggregates the
//     log. Open loads the snapshot and replays only the tail beyond the
//     watermark.
//   - Recovery scans frames in place from one bounded buffer, verifies
//     checksums, and folds the records into the ledger through
//     logstore.Fold, which sums plain credits per set; a run of v1
//     (plain-credit) frames is verified and folded in one tight loop. It
//     truncates a torn tail (the suffix a crashed append leaves), and
//     surfaces mid-log corruption — a bad frame with valid frames after
//     it — as a typed drmerr.KindStoreCorrupt error instead of guessing.
//   - Compaction retires segments wholly covered by the snapshot in the
//     background, without closing the store.
//
// Invariants:
//
//   - Watermark invariant: the snapshot watermark never points past
//     fsynced bytes (Snapshot syncs the active segment before computing
//     it), so a loaded snapshot's replay start always lands on durable,
//     frame-aligned data.
//   - Recovery ≡ uninterrupted audit: a recovered store holds a prefix
//     of the records appended, containing every fsync-acknowledged
//     record, inventing none; ForEach replays that prefix's compacted
//     form, so the audit report over the recovered store is identical to
//     the report an uninterrupted store holding that prefix produces
//     (crash_test.go proves this at every injected failure offset).
//
// Store implements logstore.Store, so the engine replays it like any
// other log.
package wal

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/drmerr"
	"repro/internal/fsx"
	"repro/internal/logstore"
	"repro/internal/trace"
)

// FsyncPolicy selects when appended frames are made durable.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before Append returns: an acknowledged record is
	// durable. The safest and slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval group-commits: a background syncer fsyncs the active
	// segment at most once per Options.Interval when there are unsynced
	// appends, so concurrent appenders share one fsync. Acknowledged
	// records may be lost to a crash within the window.
	FsyncInterval
	// FsyncOS never fsyncs: appends reach the OS page cache on write and
	// survive process crashes, but not power loss.
	FsyncOS
)

// String returns the policy's flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOS:
		return "os"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsync parses a -fsync flag value: "always", "os", "interval", or
// "interval=<duration>" (e.g. "interval=20ms").
func ParseFsync(s string) (FsyncPolicy, time.Duration, error) {
	switch {
	case s == "always":
		return FsyncAlways, 0, nil
	case s == "os":
		return FsyncOS, 0, nil
	case s == "interval":
		return FsyncInterval, 0, nil // Options default
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: bad fsync interval %q", s)
		}
		return FsyncInterval, d, nil
	default:
		return 0, 0, fmt.Errorf("wal: unknown fsync policy %q (want always, os, interval[=d])", s)
	}
}

// Options configure a Store. The zero value is usable: 64 MiB segments,
// FsyncAlways, manual snapshots only.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size.
	// Default 64 MiB.
	SegmentBytes int64
	// Fsync is the durability policy.
	Fsync FsyncPolicy
	// Interval is the FsyncInterval group-commit period. Default 50ms.
	Interval time.Duration
	// SnapshotEvery, when positive, writes a snapshot automatically after
	// that many appends since the last one. 0 = snapshot only on demand.
	SnapshotEvery int

	// OpenSegFile lets tests substitute a failing writer to inject
	// crashes at arbitrary byte offsets (the crash-injection harness and
	// the cluster failover property test both use it); nil means
	// os.OpenFile.
	OpenSegFile func(path string, flag int) (SegFile, error)
}

// SegFile is the writable handle of the active segment; the indirection
// exists for crash injection.
type SegFile interface {
	io.Writer
	io.Closer
	Sync() error
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.OpenSegFile == nil {
		o.OpenSegFile = func(path string, flag int) (SegFile, error) {
			return os.OpenFile(path, flag, 0o644)
		}
	}
	return o
}

// RecoveryStats describes what Open found and fixed.
type RecoveryStats struct {
	// SnapshotRecords is the compacted entry count loaded from the
	// snapshot (0 when none); TailRecords counts frames replayed beyond
	// the watermark.
	SnapshotRecords int
	TailRecords     int
	// SegmentsScanned counts segment files read; TruncatedBytes is the
	// torn tail removed, if any.
	SegmentsScanned int
	TruncatedBytes  int64
	// Duration is the wall time of Open.
	Duration time.Duration
}

// Store is a durable, segmented, checksummed issuance log. All methods
// are safe for concurrent use. Its in-memory state is the lifecycle
// ledger of every record appended, O(distinct sets) however long the log,
// and ForEach replays the ledger's canonical form without touching disk.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	f          SegFile
	size       int64  // active segment size, bytes (header included)
	segIdx     uint64 // active segment index
	seq        uint64 // records appended over the store's lifetime
	synced     uint64 // records covered by a completed fsync
	syncedSize int64  // active segment bytes covered by a completed fsync
	dirty      bool   // unsynced bytes in the active segment
	failed     error  // sticky: a failed write, sync, or snapshot poisons the store
	closed     bool

	ledger    logstore.Ledger // lifecycle state of every record, checked on append
	snapLen   int             // compacted entries in the installed snapshot
	snapSeq   uint64          // watermark: records the snapshot aggregates
	snapSeg   uint64          // watermark segment of the installed snapshot
	snapOff   int64           // watermark offset in that segment
	sinceSnap int             // appends since the last snapshot
	lastSnap  time.Time

	buf []byte // frame scratch, reused across appends

	stopSync  chan struct{}
	syncDone  chan struct{}
	compactWG sync.WaitGroup

	rec RecoveryStats
}

// MigrationError refuses a JSONL issuance log where a serving process
// expects a WAL directory. The server converts nothing and leaves the
// file as it is; the error names the drmaudit run that migrates the log
// into a WAL directory the server can open.
type MigrationError struct {
	// Corpus is the corpus document the log belongs to, Log the JSONL
	// file, and WAL the directory to migrate it into.
	Corpus, Log, WAL string
}

// Error implements error.
func (e *MigrationError) Error() string {
	return fmt.Sprintf("wal: %s is a JSONL issuance log, and servers open only WAL directories; "+
		"migrate it with: drmaudit -corpus %s -log %s -migrate-wal %s", e.Log, e.Corpus, e.Log, e.WAL)
}

// Open opens (creating if needed) the WAL in dir and recovers its state:
// load the snapshot if present, replay segment frames beyond the
// watermark verifying checksums, truncate a torn tail, and resume
// appending. Mid-log corruption — a bad frame with valid frames after
// it, or a checksum-failing snapshot — surfaces as a
// drmerr.KindStoreCorrupt error.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.rec.Duration = time.Since(start)
	M.RecoverySeconds.Set(s.rec.Duration.Seconds())
	M.TruncatedBytes.Add(s.rec.TruncatedBytes)
	s.updateSegmentsGauge()
	if opts.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// RecoveryStats returns what Open found and fixed.
func (s *Store) RecoveryStats() RecoveryStats { return s.rec }

// Dir returns the WAL directory.
func (s *Store) Dir() string { return s.dir }

// recover rebuilds the ledger from the snapshot and segments, repairing
// a torn tail, and leaves the store ready to append. The append path
// admits every record before writing it, so a sequence the ledger
// refuses here means the files were tampered with after the fact.
func (s *Store) recover() error {
	doc, err := loadSnapshot(s.dir)
	if err != nil {
		return err
	}
	// One fold carries the snapshot's records and every frame beyond the
	// watermark into the ledger, summing plain credits per set.
	fold := logstore.NewFold(&s.ledger)
	if doc != nil {
		for _, r := range doc.Records {
			if err := fold.Observe(r); err != nil {
				return drmerr.Wrap(drmerr.KindStoreCorrupt, "wal.open", err)
			}
		}
		s.seq = doc.Seq
		s.snapSeq = doc.Seq
		s.snapSeg = doc.Segment
		s.snapOff = doc.Offset
		s.snapLen = len(doc.Records)
		s.rec.SnapshotRecords = len(doc.Records)
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	// With a snapshot, segments before the watermark are fully aggregated
	// into it — compaction fodder, not replay input.
	replay := segs
	if doc != nil {
		replay = replay[:0:0]
		for _, idx := range segs {
			if idx >= doc.Segment {
				replay = append(replay, idx)
			}
		}
		if len(replay) == 0 || replay[0] != doc.Segment {
			return drmerr.New(drmerr.KindStoreCorrupt, "wal.open",
				"wal: %s: snapshot watermark names segment %d, which is missing", s.dir, doc.Segment)
		}
	}
	buf := make([]byte, replayBufSize)
	for i, idx := range replay {
		last := i == len(replay)-1
		startOff := int64(segmentHeaderSize)
		if doc != nil && idx == doc.Segment {
			startOff = doc.Offset
		}
		if err := s.replaySegment(idx, startOff, i == 0, doc, last, fold, buf); err != nil {
			return err
		}
		s.rec.SegmentsScanned++
	}
	fold.Flush()
	s.rec.TailRecords = int(s.seq - s.snapSeq)
	if s.segIdx == 0 {
		// Fresh store, or the only segment was a headerless stub (the
		// watermark segment always replays, so doc == nil here).
		return s.createSegmentLocked(1)
	}
	// Resume appending to the recovered last segment.
	f, err := s.opts.OpenSegFile(segmentPath(s.dir, s.segIdx), os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("wal: reopening segment %d: %w", s.segIdx, err)
	}
	s.f = f
	s.synced = s.seq // everything recovered came off durable media
	s.syncedSize = s.size
	return nil
}

// replaySegment scans segment idx from startOff, folding valid frames
// into the ledger. first marks the first replayed segment (whose base
// sequence cannot be cross-checked exactly); last marks the final one,
// the only place a torn tail is legal. buf is the replay buffer, shared
// by every segment and by the bad-frame scan, so recovery holds
// replayBufSize bytes of log however large a segment grows.
func (s *Store) replaySegment(idx uint64, startOff int64, first bool, doc *snapshotDoc, last bool, fold *logstore.Fold, buf []byte) error {
	path := segmentPath(s.dir, idx)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: reading segment %d: %w", idx, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: reading segment %d: %w", idx, err)
	}
	size := fi.Size()
	corrupt := func(off int64, format string, args ...any) error {
		return drmerr.New(drmerr.KindStoreCorrupt, "wal.open",
			"wal: %s: byte offset %d: %s", path, off, fmt.Sprintf(format, args...))
	}
	var hdr [segmentHeaderSize]byte
	hn, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return fmt.Errorf("wal: reading segment %d: %w", idx, err)
	}
	baseSeq, ok := parseSegmentHeader(hdr[:hn])
	if !ok {
		if doc != nil && idx == doc.Segment {
			// The watermark segment's header was synced before the
			// snapshot was installed; a bad one is real corruption.
			return corrupt(0, "bad segment header under snapshot watermark")
		}
		torn, err := tornTail(f, 0, size, last, buf)
		if err != nil {
			return fmt.Errorf("wal: reading segment %d: %w", idx, err)
		}
		if !torn {
			return corrupt(0, "bad segment header")
		}
		// A crash during segment creation left a headerless stub as the
		// newest segment: discard it.
		s.rec.TruncatedBytes += size
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: removing stub segment %d: %w", idx, err)
		}
		return fsx.SyncDir(s.dir)
	}
	switch {
	case first && doc != nil:
		if baseSeq > uint64(doc.Seq) {
			return corrupt(0, "segment base seq %d beyond snapshot watermark seq %d", baseSeq, doc.Seq)
		}
	case first:
		if baseSeq != 0 {
			return corrupt(0, "first segment base seq %d, want 0 (earlier segments removed without a snapshot?)", baseSeq)
		}
	default:
		if baseSeq != s.seq {
			return corrupt(0, "segment base seq %d does not continue the log at seq %d", baseSeq, s.seq)
		}
	}
	if size < startOff {
		// The watermark invariant says bytes below the watermark were
		// fsynced before the snapshot existed; a shorter file is damage.
		return corrupt(size, "segment shorter than snapshot watermark offset %d", startOff)
	}
	// Read only from the replay start: below a snapshot watermark the bytes
	// are already aggregated into the snapshot, and skipping them is what
	// makes snapshot+tail recovery O(tail) instead of O(segment).
	off, frames, err := scanFrames(f, startOff, size, fold, buf)
	s.seq += frames
	if err != nil {
		if drmerr.KindOf(err) == drmerr.KindStoreCorrupt {
			return err
		}
		return fmt.Errorf("wal: reading segment %d: %w", idx, err)
	}
	if off < size {
		torn, err := tornTail(f, off+1, size, last, buf)
		if err != nil {
			return fmt.Errorf("wal: reading segment %d: %w", idx, err)
		}
		if !torn {
			return corrupt(off, "invalid frame with valid frames after it (mid-log corruption)")
		}
		// Torn tail: everything from off on is the debris of an append
		// that never completed. Truncate it away, durably.
		s.rec.TruncatedBytes += size - off
		if err := truncateSegment(path, off); err != nil {
			return err
		}
	}
	s.segIdx = idx
	s.size = off
	return nil
}

// scanFrames folds the frames of f from off up to size into fold, and
// returns where the first frame that does not parse starts (size if all
// of them do) and how many frames it folded. A sequence the fold
// refuses is a KindStoreCorrupt error.
//
// Frames are parsed in place from buf[lo:hi], which holds the file bytes
// from off to read; a frame split by a refill moves to the front of buf
// first, so the scan holds len(buf) bytes of log however large the
// segment. Runs of v1 frames, nearly all of a long-lived log, go through
// foldRecordRun, which stops at the same buffer fill as this loop, so
// the scan refills at the same offsets whatever the mix of frames.
func scanFrames(f io.ReaderAt, off, size int64, fold *logstore.Fold, buf []byte) (end int64, frames uint64, err error) {
	read := off
	lo, hi := 0, 0
	for {
		// A frame is never longer than ledgerFrameSize, so while that
		// many bytes are buffered (or the file has no more) a parse that
		// fails is the frame's own fault, not the buffer's.
		for hi-lo >= ledgerFrameSize || (read == size && lo < hi) {
			if n := foldRecordRun(buf[lo:hi], read == size, fold); n > 0 {
				frames += uint64(n / recordFrameSize)
				lo += n
				off += int64(n)
				continue
			}
			rec, n, status := parseFrame(buf[lo:hi])
			if status != frameOK {
				return off, frames, nil
			}
			if err := fold.Observe(rec); err != nil {
				return off, frames, drmerr.Wrap(drmerr.KindStoreCorrupt, "wal.open", err)
			}
			frames++
			lo += n
			off += int64(n)
		}
		if read == size {
			return off, frames, nil
		}
		hi = copy(buf, buf[lo:hi])
		lo = 0
		n := int(min(int64(len(buf)-hi), size-read))
		if m, err := f.ReadAt(buf[hi:hi+n], read); m < n {
			return off, frames, cmp.Or(err, io.ErrUnexpectedEOF)
		}
		hi += n
		read += int64(n)
	}
}

// foldRecordRun verifies and folds the run of v1 frames at the start of
// b, returning the bytes it consumed. It takes a frame only while
// ledgerFrameSize bytes are buffered, or, at the end of the file, while
// the whole frame is, which is the scan loop's own condition for
// parsing; the first frame that is not a whole, valid v1 frame ends the
// run and is left to parseFrame. Each frame gets the checks parseFrame
// gives it: its length prefix, its CRC32C, and Validate's demands of a
// v1 record. Folding a plain credit cannot fail, so no frame needs a
// Record or a call to Observe.
func foldRecordRun(b []byte, eof bool, fold *logstore.Fold) int {
	keep := ledgerFrameSize
	if eof {
		keep = recordFrameSize
	}
	n := 0
	for len(b)-n >= keep {
		set, count, ok := decodeRecordFrame((*[recordFrameSize]byte)(b[n:]))
		if !ok {
			break
		}
		fold.Credit(set, count)
		n += recordFrameSize
	}
	return n
}

// tornTail reports whether damage in a segment is a torn tail: the
// debris of a crashed append, legal only in the last segment and only
// with no valid frame in [from, size). Anything else is mid-log
// corruption.
func tornTail(f io.ReaderAt, from, size int64, last bool, buf []byte) (bool, error) {
	if !last {
		return false, nil
	}
	valid, err := anyValidFrame(f, from, size, buf)
	return !valid, err
}

// replayBufSize bounds the bytes recovery holds of the log it reads.
const replayBufSize = 64 << 10

// anyValidFrame reports whether a valid frame parses at any byte offset
// in [from, size) of f — the recovery test distinguishing a torn tail
// (pure debris) from mid-log corruption (real records beyond the
// damage). It reads through buf, overlapping consecutive reads by
// ledgerFrameSize−1 bytes so that a frame straddling two reads is
// parsed whole in the second.
func anyValidFrame(f io.ReaderAt, from, size int64, buf []byte) (bool, error) {
	for p := from; p < size; {
		n := int(min(int64(len(buf)), size-p))
		if m, err := f.ReadAt(buf[:n], p); m < n {
			return false, cmp.Or(err, io.ErrUnexpectedEOF)
		}
		for o := 0; o+recordFrameSize <= n; o++ {
			if _, _, status := parseFrame(buf[o:n]); status == frameOK {
				return true, nil
			}
		}
		if p+int64(n) == size {
			break
		}
		p += int64(n - (ledgerFrameSize - 1))
	}
	return false, nil
}

// truncateSegment durably cuts a segment file to size.
func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening %s for truncation: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing truncated %s: %w", path, err)
	}
	return nil
}

// createSegmentLocked creates segment idx with a header and makes the
// creation durable, installing it as the active segment.
func (s *Store) createSegmentLocked(idx uint64) error {
	path := segmentPath(s.dir, idx)
	f, err := s.opts.OpenSegFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", idx, err)
	}
	if _, err := f.Write(encodeSegmentHeader(s.seq)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment %d header: %w", idx, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment %d header: %w", idx, err)
	}
	if err := fsx.SyncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.f = f
	s.segIdx = idx
	s.size = segmentHeaderSize
	s.syncedSize = segmentHeaderSize
	s.dirty = false
	return nil
}

// rotateLocked seals the active segment (final fsync regardless of
// policy, bounding any loss window to one segment) and opens the next.
func (s *Store) rotateLocked(ctx context.Context) error {
	if err := s.syncLocked(ctx); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %d: %w", s.segIdx, err)
	}
	if err := s.createSegmentLocked(s.segIdx + 1); err != nil {
		return err
	}
	M.Rotations.Inc()
	s.updateSegmentsGauge()
	return nil
}

// Append implements logstore.Store. Durability of the acknowledgment
// follows Options.Fsync; see the policy docs. Any write or sync failure
// poisons the store — later appends fail fast — because the on-disk tail
// is no longer in a state this process can reason about (recovery on the
// next Open is).
func (s *Store) Append(r logstore.Record) error {
	return s.AppendContext(context.Background(), r)
}

// AppendContext is Append with a context for tracing: a traced request
// records a "wal.append" span covering the frame write and, when the
// policy fsyncs inline, a "wal.fsync" child covering the sync wait. The
// context does not cancel the append — a half-written frame is worse
// than a completed one — it only carries the active span; untraced
// contexts take the exact Append path. It implements
// logstore.ContextAppender.
func (s *Store) AppendContext(ctx context.Context, r logstore.Record) error {
	if err := r.Validate(); err != nil {
		return drmerr.Wrap(drmerr.KindInvalidInput, "wal.append", err)
	}
	ctx, sp := trace.Start(ctx, "wal.append")
	s.mu.Lock()
	err := s.appendLocked(ctx, r)
	if sp != nil {
		sp.SetInt("seq", int64(s.seq))
		sp.SetAttr("segment", fmt.Sprintf("%06d", s.segIdx))
	}
	s.mu.Unlock()
	if sp != nil {
		sp.Fail(err)
		sp.End()
	}
	return err
}

// AppendBatch appends records with one write (and, under FsyncAlways,
// one fsync) — the bulk path migrations and generators use.
func (s *Store) AppendBatch(recs []logstore.Record) error {
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return drmerr.Wrap(drmerr.KindInvalidInput, "wal.append", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Admit the whole batch up front (debits may consume credits from
	// earlier records in the same batch); an unsound batch is refused
	// atomically before any frame is written.
	if err := s.ledger.ObserveAll(recs); err != nil {
		return err
	}
	for len(recs) > 0 {
		if err := s.stateErrLocked(); err != nil {
			return err
		}
		if s.size >= s.opts.SegmentBytes && s.size > segmentHeaderSize {
			if err := s.rotateLocked(context.Background()); err != nil {
				return err
			}
		}
		// Fill the active segment up to the rotation threshold.
		room := int((s.opts.SegmentBytes - s.size + recordFrameSize - 1) / recordFrameSize)
		n := min(max(room, 1), len(recs))
		s.buf = s.buf[:0]
		for _, r := range recs[:n] {
			s.buf = appendFrame(s.buf, r)
		}
		if err := s.writeLocked(s.buf); err != nil {
			return err
		}
		s.seq += uint64(n)
		s.sinceSnap += n
		M.Appends.Add(int64(n))
		recs = recs[n:]
	}
	return s.commitLocked(context.Background())
}

func (s *Store) appendLocked(ctx context.Context, r logstore.Record) error {
	if err := s.stateErrLocked(); err != nil {
		return err
	}
	if err := s.ledger.Admit(r); err != nil {
		return err
	}
	if s.size >= s.opts.SegmentBytes && s.size > segmentHeaderSize {
		if err := s.rotateLocked(ctx); err != nil {
			return err
		}
	}
	s.buf = appendFrame(s.buf[:0], r)
	if err := s.writeLocked(s.buf); err != nil {
		return err
	}
	s.ledger.Apply(r)
	s.seq++
	s.sinceSnap++
	M.Appends.Inc()
	return s.commitLocked(ctx)
}

// stateErrLocked reports the sticky failure or closed state.
func (s *Store) stateErrLocked() error {
	if s.closed {
		return errors.New("wal: store closed")
	}
	if s.failed != nil {
		return fmt.Errorf("wal: store failed: %w", s.failed)
	}
	return nil
}

// writeLocked writes frame bytes to the active segment, accounting for
// partial writes and poisoning the store on failure.
func (s *Store) writeLocked(b []byte) error {
	n, err := s.f.Write(b)
	s.size += int64(n)
	if err != nil {
		s.failed = err
		return fmt.Errorf("wal: append: %w", err)
	}
	s.dirty = true
	return nil
}

// commitLocked applies the post-append durability policy and the
// auto-snapshot trigger.
func (s *Store) commitLocked(ctx context.Context) error {
	if s.opts.Fsync == FsyncAlways {
		if err := s.syncLocked(ctx); err != nil {
			return err
		}
	}
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if _, err := s.snapshotLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// syncLocked fsyncs the active segment if it has unsynced bytes,
// advancing the synced watermark. A traced ctx records the sync wait as
// a "wal.fsync" span — under FsyncAlways this is the durability cost a
// request actually pays, the number the tracer exists to expose.
func (s *Store) syncLocked(ctx context.Context) error {
	if !s.dirty {
		s.synced = s.seq
		s.syncedSize = s.size
		return nil
	}
	_, sp := trace.Start(ctx, "wal.fsync")
	start := time.Now()
	err := s.f.Sync()
	M.Fsyncs.Inc()
	M.FsyncSeconds.ObserveSince(start)
	if err != nil {
		if sp != nil {
			sp.Fail(err)
			sp.End()
		}
		s.failed = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	sp.End()
	s.dirty = false
	s.synced = s.seq
	s.syncedSize = s.size
	return nil
}

// Sync forces an fsync of the active segment now, whatever the policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stateErrLocked(); err != nil {
		return err
	}
	return s.syncLocked(context.Background())
}

// syncLoop is the FsyncInterval group-committer: one fsync per interval
// covers every append of the window.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.failed == nil && s.dirty {
				// Poisons the store on failure; appenders see it.
				s.syncLocked(context.Background())
			}
			s.mu.Unlock()
		}
	}
}

// SyncedSeq returns the number of records covered by a completed fsync
// (== Seq under FsyncAlways).
func (s *Store) SyncedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced
}

// Seq returns the number of records appended over the store's lifetime,
// snapshot-covered records included.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Backlog returns the number of appended records not yet covered by a
// completed fsync — the durability lag an interval or OS fsync policy
// accumulates (always 0 under FsyncAlways). The runtime telemetry
// collector exposes it as drm_wal_fsync_backlog.
func (s *Store) Backlog() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.seq - s.synced)
}

// Len implements logstore.Store: the compacted entries of the installed
// snapshot plus the frames appended since its watermark. ForEach may
// yield fewer records: it replays the compacted form of both.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapLen + int(s.seq-s.snapSeq)
}

// ForEach implements logstore.Store, replaying the ledger's canonical
// form — the sequence a snapshot persists: logstore.Compact of the
// installed snapshot's records and every record appended since. That
// aggregation is exactly the one the validation tree applies anyway
// (summing counts per belongs-to set), so audits over it equal audits
// over the raw append sequence, and a replay costs O(distinct sets)
// however long the log.
func (s *Store) ForEach(fn func(logstore.Record) error) error {
	s.mu.Lock()
	recs := s.ledger.Canonical()
	s.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// LedgerSnapshot implements logstore.LedgerReader.
func (s *Store) LedgerSnapshot() *logstore.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.Clone()
}

// Close seals the store: final fsync, stop the group-committer, wait for
// background compaction, close the active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	var syncErr error
	if !s.closed && s.failed == nil {
		syncErr = s.syncLocked(context.Background())
	}
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if alreadyClosed {
		return errors.New("wal: store closed")
	}
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	s.compactWG.Wait()
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return syncErr
}

// updateSegmentsGauge refreshes the live segment-count metric.
func (s *Store) updateSegmentsGauge() {
	if M.Segments == nil {
		return
	}
	if segs, err := listSegments(s.dir); err == nil {
		M.Segments.Set(int64(len(segs)))
	}
}
