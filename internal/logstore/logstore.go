// Package logstore implements the offline issuance log of §2.1 (Table 2).
//
// Aggregate validation is done offline: every time the distributor issues a
// license, the validation authority appends a record holding the belongs-to
// set of redistribution licenses (as a corpus-index mask) and the issued
// permission count. The validation tree is later built by replaying the log.
//
// Mem is the in-memory Store, the benchmark and library substrate; the
// durable Store a server opens is internal/wal. JSON lines are this
// package's offline interchange format: WriteAll writes them (drmgen),
// and Read and ReadFile replay them (drmaudit, its -migrate-wal
// conversion, and the golden compatibility test).
package logstore

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// CorruptError locates JSONL input that fails replay: everything before
// Offset decodes into Records valid records, and the content at Offset
// is undecodable, structurally invalid or unsound. A hand repair of a
// damaged log truncates it at Offset, keeping those Records records.
type CorruptError struct {
	Offset  int64
	Records int
	Err     error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("logstore: bad record at byte offset %d (%d valid records before it): %v",
		e.Offset, e.Records, e.Err)
}

// Unwrap exposes the decode, validation or soundness failure.
func (e *CorruptError) Unwrap() error { return e.Err }

// ReadFile replays the JSONL log at path through Read.
func ReadFile(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("logstore: open %s: %w", path, err)
	}
	defer f.Close()
	if err := Read(f, fn); err != nil {
		return fmt.Errorf("logstore: reading %s: %w", path, err)
	}
	return nil
}

// Read replays JSONL records from r. Undecodable input, structurally
// invalid persisted records, and soundness-breaking sequences surface
// as KindStoreCorrupt errors carrying a *CorruptError — a log that fails
// replay is corrupt state, not a caller mistake.
func Read(r io.Reader, fn func(Record) error) error {
	dec := json.NewDecoder(r)
	fold := NewFold(&Ledger{})
	var valid int64
	for n := 0; ; n++ {
		var rec Record
		err := dec.Decode(&rec)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = rec.Validate()
		}
		if err == nil {
			err = fold.Observe(rec)
		}
		if err != nil {
			return drmerr.Wrap(drmerr.KindStoreCorrupt, "logstore.read",
				&CorruptError{Offset: valid, Records: n, Err: err})
		}
		if err := fn(rec); err != nil {
			return err
		}
		valid = dec.InputOffset()
	}
}

// WriteAll writes records as JSONL to w, for workload generators and
// offline interchange. The sequence must be sound (every debit
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
