// Package logstore implements the offline issuance log of §2.1 (Table 2).
//
// Aggregate validation is done offline: every time the distributor issues a
// license, the validation authority appends a record holding the belongs-to
// set of redistribution licenses (as a corpus-index mask) and the issued
// permission count. The validation tree is later built by replaying the log.
//
// Two stores are provided: Mem (in-memory, the benchmark substrate) and
// File (JSON-lines on disk with buffered appends, the durable substrate the
// CLI tools and the engine use). Both implement Store.
package logstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/trace"
)

// Record is one lifecycle ledger row. The original model held only
// Table 2's (Set, Set Counts) pair — an append-only issuance log — and
// that remains the zero-Kind case: a kindless record is an issue, so
// pre-lifecycle JSONL logs and WAL segments replay unchanged. The
// generalized ledger adds revocation, expiry, and transfer records whose
// signed contributions to the net consumed count come from Effective.
type Record struct {
	// Kind classifies the lifecycle event. The zero value is KindIssue
	// and is omitted on the wire, so plain issue records keep their
	// pre-lifecycle encoding byte for byte.
	Kind Kind `json:"kind,omitempty"`
	// Set is the belongs-to set of the license as a corpus-index mask
	// (the paper's S column).
	Set bitset.Mask `json:"set"`
	// Count is the permission count the event carries (the paper's C
	// column). It is always positive; the sign of the ledger movement is
	// determined by Kind (see Effective).
	Count int64 `json:"count"`
	// Meta carries optional per-record lifecycle metadata. Its fields
	// are inlined into the JSON encoding and omitted when zero.
	Meta
}

// Meta is the lifecycle metadata a record may carry.
type Meta struct {
	// Expiry is the unix-seconds instant at which the issued permissions
	// lapse (0 = never). Only issue records carry it — the expiry
	// sweeper turns due buckets into expire records that name the same
	// instant, so the ledger can retire the matching bucket.
	Expiry int64 `json:"expiry,omitempty"`
}

// Effective returns the record's signed contribution to the net consumed
// count C⟨S⟩: +Count for issues, −Count for revokes and expiries, and 0
// for transfers, which move permissions between consumers without
// changing the total consumed against the set.
func (r Record) Effective() int64 {
	switch r.Kind {
	case KindRevoke, KindExpire:
		return -r.Count
	case KindTransfer:
		return 0
	default:
		return r.Count
	}
}

// Validate checks structural well-formedness of a record. Failures are
// typed KindInvalidInput so the HTTP layer maps malformed ledger bodies
// to a structured 400; replay paths re-wrap them as KindStoreCorrupt.
func (r Record) Validate() error {
	const op = "logstore.record"
	if !r.Kind.Valid() {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"logstore: record with unknown kind %d", uint8(r.Kind))
	}
	if r.Set.Empty() {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"logstore: %s record with empty belongs-to set", r.Kind)
	}
	if r.Count <= 0 {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"logstore: %s record with non-positive count %d", r.Kind, r.Count)
	}
	if r.Expiry < 0 {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"logstore: %s record with negative expiry %d", r.Kind, r.Expiry)
	}
	if r.Expiry != 0 && r.Kind != KindIssue && r.Kind != KindExpire {
		return drmerr.New(drmerr.KindInvalidInput, op,
			"logstore: %s record cannot carry expiry metadata", r.Kind)
	}
	return nil
}

// Store is an append-only issuance log.
type Store interface {
	// Append adds one record. Implementations validate the record.
	Append(Record) error
	// Len returns the number of records appended so far. A store that
	// compacts (wal.Store) counts its compacted entries plus the records
	// appended since.
	Len() int
	// ForEach replays all records in append order, or a
	// compaction-equivalent sequence (Compact of the records appended:
	// the same per-set net counts, TTL buckets and transfer totals),
	// stopping at the first error returned by fn.
	ForEach(fn func(Record) error) error
}

// Durable is a Store backed by persistent media: Flush pushes buffered
// records toward the OS, Close releases the backing resources. Both
// *File (JSONL) and *wal.Store (segmented checksummed WAL) implement it;
// catalog entries hold their logs through this interface so the two
// backends interchange.
type Durable interface {
	Store
	Flush() error
	Close() error
}

// ContextAppender is implemented by stores whose appends accept a
// context, so tracing (and any future per-append deadline handling) can
// reach inside the append path — *wal.Store records append and fsync
// spans this way. The base Store interface stays context-free: most
// implementations have no blocking inside Append worth cancelling.
type ContextAppender interface {
	AppendContext(ctx context.Context, r Record) error
}

// AppendContext appends r to s, threading ctx into the store when it
// implements ContextAppender. For plain stores it wraps the append in a
// "logstore.append" span so traced requests still see where log time
// went. Untraced contexts add no allocations.
func AppendContext(ctx context.Context, s Store, r Record) error {
	if ca, ok := s.(ContextAppender); ok {
		return ca.AppendContext(ctx, r)
	}
	_, sp := trace.Start(ctx, "logstore.append")
	err := s.Append(r)
	if sp != nil {
		sp.Fail(err)
		sp.End()
	}
	return err
}

// replayPollRecords is how many records ForEachContext replays between
// context polls: frequent enough that cancelling a multi-million-record
// replay takes microseconds, rare enough to stay off the per-record path.
const replayPollRecords = 1024

// ForEachContext replays s under a context, polling ctx every
// replayPollRecords records. A cancelled replay stops with a
// KindCancelled error wrapping ctx.Err(). It is the context-aware replay
// every pipeline layer (vtree.BuildContext, the auditors) goes through;
// Store implementations themselves stay context-free.
func ForEachContext(ctx context.Context, s Store, fn func(Record) error) error {
	if err := ctx.Err(); err != nil {
		return drmerr.Wrap(drmerr.KindCancelled, "logstore.replay", err)
	}
	_, sp := trace.Start(ctx, "logstore.replay")
	n := 0
	err := s.ForEach(func(r Record) error {
		if n++; n%replayPollRecords == 0 {
			if err := ctx.Err(); err != nil {
				return drmerr.Wrap(drmerr.KindCancelled, "logstore.replay", err)
			}
		}
		return fn(r)
	})
	if sp != nil {
		sp.SetInt("records", int64(n))
		sp.Fail(err)
		sp.End()
	}
	return err
}

// Mem is an in-memory Store. The zero value is ready to use. Mem is
// safe for concurrent use: appends serialise behind a mutex, and ForEach
// iterates a snapshot of the record slice taken under it, so a replay
// concurrent with appends sees a consistent prefix (the engine's
// concurrent issuance path relies on this).
type Mem struct {
	mu      sync.RWMutex
	ledger  Ledger
	records []Record
}

// NewMem returns an empty in-memory store with the given capacity hint.
func NewMem(capacity int) *Mem {
	return &Mem{records: make([]Record, 0, capacity)}
}

// Append implements Store. Appends that would break ledger soundness
// (a debit exceeding the set's net outstanding credits) are refused
// with a KindLedgerUnsound error and leave the store unchanged.
func (m *Mem) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return drmerr.Wrap(drmerr.KindInvalidInput, "logstore.append", err)
	}
	m.mu.Lock()
	if err := m.ledger.Admit(r); err != nil {
		m.mu.Unlock()
		return err
	}
	m.ledger.Apply(r)
	m.records = append(m.records, r)
	m.mu.Unlock()
	M.Appends.Inc()
	return nil
}

// LedgerSnapshot implements LedgerReader.
func (m *Mem) LedgerSnapshot() *Ledger {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ledger.Clone()
}

// Len implements Store.
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.records)
}

// ForEach implements Store. The iteration runs over a snapshot taken at
// call time; records appended concurrently are not visited.
func (m *Mem) ForEach(fn func(Record) error) error {
	m.mu.RLock()
	recs := m.records
	m.mu.RUnlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Records returns a snapshot of the backing slice; callers must not
// modify it.
func (m *Mem) Records() []Record {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.records
}

// Compact reduces a record sequence to its canonical ledger form: per
// set, one plain issue holding the non-expiring net count, one issue per
// surviving TTL bucket (ordered by expiry), and one transfer carrying
// the cumulative transferred total. Replaying the compacted sequence
// rebuilds the same net counts, due-expiry schedule, and transfer
// totals as the original — debits consume the non-expiring pool first
// and then the latest-expiring buckets, matching how Ledger.Due
// allocates budget to the earliest buckets — so audits and snapshot
// recovery are unchanged by compaction. For pure-issue logs this is the
// original behavior: one record per distinct set, counts summed,
// ordered by set mask.
func Compact(records []Record) []Record {
	led := LedgerOf(records)
	return led.Canonical()
}

// CompactFile rewrites a JSONL log file with its records compacted (one
// record per distinct belongs-to set, counts summed, ordered by set).
// Validation semantics are unchanged — the validation tree aggregates
// identical sets anyway — but long-lived logs shrink by orders of
// magnitude, since at most 2^{N_k}−1 distinct sets exist per group. The
// rewrite is atomic (temp file + rename); the file must not be open in a
// live File store. It returns the record counts before and after.
func CompactFile(path string) (before, after int, err error) {
	var records []Record
	if err := ReadFile(path, func(r Record) error {
		records = append(records, r)
		return nil
	}); err != nil {
		return 0, 0, err
	}
	compacted := Compact(records)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".log-compact-*")
	if err != nil {
		return 0, 0, fmt.Errorf("logstore: temp file: %w", err)
	}
	if err := WriteAll(tmp, compacted); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, 0, fmt.Errorf("logstore: closing temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, 0, fmt.Errorf("logstore: installing %s: %w", path, err)
	}
	return len(records), len(compacted), nil
}

// File is a durable Store appending JSON lines to a file. Records are
// buffered; call Flush (or Close) to force them to the OS.
//
// An internal mutex serialises appends and flushes, so concurrent readers
// (ForEach flushes before replaying) are safe with each other — the
// pattern drmserver's read-locked audit endpoints rely on. Interleaving
// Append with ForEach is still the caller's problem: a replay running
// concurrently with appends sees an unspecified prefix of them.
type File struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	enc    *json.Encoder
	n      int
	ledger Ledger
}

// OpenFile opens (creating if needed) a JSONL log at path, decoding the
// existing records so Len is correct for pre-existing logs. A log whose
// tail was torn by a crash (trailing bytes that do not decode into a
// valid record) is rejected with a KindStoreCorrupt error carrying a
// *CorruptError that names the byte offset — callers repair it explicitly
// with RepairFile (or drmaudit -repair) rather than silently appending
// after garbage.
func OpenFile(path string) (*File, error) {
	n, _, led, err := scanFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logstore: open %s: %w", path, err)
	}
	w := bufio.NewWriter(f)
	return &File{f: f, w: w, enc: json.NewEncoder(w), n: n, ledger: led}, nil
}

// CorruptError reports undecodable bytes in a JSONL log: everything
// before Offset decodes into valid records, the bytes at Offset do not.
// Torn reports whether the damage is a torn tail (no valid record follows
// the bad bytes, the shape a crashed append leaves) — repairable by
// truncating at Offset — as opposed to mid-log corruption, where valid
// records after the bad region would be lost by truncation.
type CorruptError struct {
	Path string
	// Offset is the byte offset of the first undecodable content;
	// Records counts the valid records before it.
	Offset  int64
	Records int
	Torn    bool
	Err     error
}

// Error implements error.
func (e *CorruptError) Error() string {
	shape := "mid-log corruption"
	if e.Torn {
		shape = "torn tail"
	}
	return fmt.Sprintf("logstore: %s: %s at byte offset %d (%d valid records before it): %v",
		e.Path, shape, e.Offset, e.Records, e.Err)
}

// Unwrap exposes the decode failure.
func (e *CorruptError) Unwrap() error { return e.Err }

// scanFile decodes every record in a JSONL log, returning the record
// count, the byte offset just past the last valid record, and the
// rebuilt lifecycle ledger. Undecodable content — including records
// that would break ledger soundness — yields a KindStoreCorrupt error
// wrapping a *CorruptError; a missing file is an empty log. Note the
// limits of JSONL self-checking: a tail torn at a byte position that
// still parses as a valid record (e.g. a count cut from 800 to 80) is
// undetectable here — the CRC-framed internal/wal backend exists for
// exactly that reason.
func scanFile(path string) (n int, validEnd int64, led Ledger, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, Ledger{}, nil
	}
	if err != nil {
		return 0, 0, Ledger{}, fmt.Errorf("logstore: open %s: %w", path, err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	fold := NewFold(&led)
	for {
		var rec Record
		derr := dec.Decode(&rec)
		if derr == io.EOF {
			fold.Flush()
			return n, validEnd, led, nil
		}
		if derr == nil {
			derr = rec.Validate()
		}
		if derr == nil {
			derr = fold.Observe(rec)
		}
		if derr != nil {
			torn, terr := tailBeyondRepair(f, validEnd)
			if terr != nil {
				return 0, 0, Ledger{}, terr
			}
			cerr := &CorruptError{Path: path, Offset: validEnd, Records: n, Torn: torn, Err: derr}
			return 0, 0, Ledger{}, drmerr.Wrap(drmerr.KindStoreCorrupt, "logstore.open", cerr)
		}
		n++
		validEnd = dec.InputOffset()
	}
}

// tailBeyondRepair classifies the undecodable region starting at off:
// true means it is a torn tail (no later line decodes into a valid
// record, so truncating at off loses nothing), false means valid records
// follow the damage and truncation would drop them.
func tailBeyondRepair(f *os.File, off int64) (torn bool, err error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return false, fmt.Errorf("logstore: seek: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	first := true
	for sc.Scan() {
		if first {
			// The first line is (part of) the bad region itself.
			first = false
			continue
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) == nil && rec.Validate() == nil {
			return false, nil
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return false, fmt.Errorf("logstore: scanning tail: %w", err)
	}
	return true, nil
}

// RepairFile truncates a torn tail off a JSONL log, returning the number
// of bytes removed. A clean log is left untouched (0, nil). Mid-log
// corruption — valid records after the damaged region — is refused with
// the scan's KindStoreCorrupt error, since truncating there would drop
// real records. The truncation is fsynced so a repair survives power
// loss.
func RepairFile(path string) (removed int64, err error) {
	_, _, _, serr := scanFile(path)
	if serr == nil {
		return 0, nil
	}
	var cerr *CorruptError
	if !errors.As(serr, &cerr) || !cerr.Torn {
		return 0, serr
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("logstore: open %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("logstore: stat %s: %w", path, err)
	}
	if err := f.Truncate(cerr.Offset); err != nil {
		return 0, fmt.Errorf("logstore: truncate %s: %w", path, err)
	}
	// InputOffset stops just past the JSON value, before the newline the
	// writer emitted; restore it so appends start on a fresh line.
	if cerr.Offset > 0 {
		if _, err := f.WriteAt([]byte("\n"), cerr.Offset); err != nil {
			return 0, fmt.Errorf("logstore: terminating %s: %w", path, err)
		}
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("logstore: sync %s: %w", path, err)
	}
	removed = fi.Size() - cerr.Offset
	if cerr.Offset > 0 {
		removed-- // the newline written back
	}
	if removed < 0 {
		removed = 0
	}
	return removed, nil
}

// Append implements Store. Like Mem, soundness-breaking debits are
// refused with a KindLedgerUnsound error before anything is written.
func (s *File) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return drmerr.Wrap(drmerr.KindInvalidInput, "logstore.append", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ledger.Admit(r); err != nil {
		return err
	}
	if err := s.enc.Encode(r); err != nil {
		return fmt.Errorf("logstore: append: %w", err)
	}
	s.ledger.Apply(r)
	s.n++
	M.Appends.Inc()
	return nil
}

// LedgerSnapshot implements LedgerReader. Buffered records are already
// reflected: the ledger is maintained at append time.
func (s *File) LedgerSnapshot() *Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.Clone()
}

// Len implements Store.
func (s *File) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush forces buffered records to the OS.
func (s *File) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *File) flushLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("logstore: flush: %w", err)
	}
	M.Flushes.Inc()
	return nil
}

// Close flushes and closes the underlying file. The store is unusable
// afterwards.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("logstore: close: %w", err)
	}
	return nil
}

// ForEach implements Store by re-reading the file. Buffered records are
// flushed first so the replay sees everything appended so far.
func (s *File) ForEach(fn func(Record) error) error {
	if err := s.Flush(); err != nil {
		return err
	}
	return ReadFile(s.f.Name(), fn)
}

// ReadFile replays a JSONL log file produced by File (or WriteAll).
// Undecodable content is classified exactly like OpenFile: the returned
// KindStoreCorrupt error carries a *CorruptError naming the byte offset
// and whether the damage is a repairable torn tail.
func ReadFile(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("logstore: open %s: %w", path, err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var validEnd int64
	fold := NewFold(&Ledger{})
	n := 0
	for {
		var rec Record
		derr := dec.Decode(&rec)
		if derr == io.EOF {
			return nil
		}
		if derr == nil {
			derr = rec.Validate()
		}
		if derr == nil {
			derr = fold.Observe(rec)
		}
		if derr != nil {
			torn, terr := tailBeyondRepair(f, validEnd)
			if terr != nil {
				return terr
			}
			cerr := &CorruptError{Path: path, Offset: validEnd, Records: n, Torn: torn, Err: derr}
			return drmerr.Wrap(drmerr.KindStoreCorrupt, "logstore.read", cerr)
		}
		if err := fn(rec); err != nil {
			return err
		}
		n++
		validEnd = dec.InputOffset()
	}
}

// Read replays JSONL records from r. Undecodable input, structurally
// invalid persisted records, and soundness-breaking sequences surface
// as KindStoreCorrupt errors — a log that fails replay is corrupt
// state, not a caller mistake.
func Read(r io.Reader, fn func(Record) error) error {
	dec := json.NewDecoder(r)
	fold := NewFold(&Ledger{})
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return drmerr.Wrapf(drmerr.KindStoreCorrupt, "logstore.read", err, "logstore: decode")
		}
		if err := rec.Validate(); err != nil {
			return drmerr.Wrap(drmerr.KindStoreCorrupt, "logstore.read", err)
		}
		if err := fold.Observe(rec); err != nil {
			return drmerr.Wrap(drmerr.KindStoreCorrupt, "logstore.read", err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// WriteAll writes records as JSONL to w — the bulk counterpart of File
// for workload generators. The sequence must be sound (every debit
// covered by prior credits), since an unsound log would be refused on
// replay.
func WriteAll(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var led Ledger
	for _, r := range records {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := led.Observe(r); err != nil {
			return err
		}
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("logstore: encode: %w", err)
		}
	}
	return bw.Flush()
}

// Collect replays a store into a slice.
func Collect(s Store) ([]Record, error) {
	out := make([]Record, 0, s.Len())
	err := s.ForEach(func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
