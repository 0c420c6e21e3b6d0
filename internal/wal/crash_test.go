package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/workload"
)

// The crash-injection harness: every segment write goes through a shared
// byte budget; the write that would exceed it is cut short (a torn frame,
// exactly what a power cut mid-write leaves) and every later write and
// fsync fails. Sweeping the budget over every region of the byte stream
// drives recovery through all of its cases — mid-header, mid-frame,
// frame-aligned, mid-rotation — and after each simulated crash the
// recovered store must satisfy:
//
//	acked ⊆ recovered ⊆ attempted  (no synced record lost, none invented)
//
// and produce an audit Report identical to an uninterrupted store holding
// the same records.

var errInjected = errors.New("wal_test: injected crash")

// crashBudget is the shared fault state: remaining bytes before the
// "power cut", and whether it has happened.
type crashBudget struct {
	mu        sync.Mutex
	remaining int64
	tripped   bool
	written   int64
}

// crashFile passes writes through to the real file until the budget
// trips; from then on the disk is gone.
type crashFile struct {
	f *os.File
	b *crashBudget
}

func (c *crashFile) Write(p []byte) (int, error) {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.b.tripped {
		return 0, errInjected
	}
	n := len(p)
	if int64(n) > c.b.remaining {
		n = int(c.b.remaining)
		c.b.tripped = true
	}
	c.b.remaining -= int64(n)
	if n > 0 {
		if _, err := c.f.Write(p[:n]); err != nil {
			return 0, err
		}
		c.b.written += int64(n)
	}
	if c.b.tripped {
		return n, errInjected
	}
	return n, nil
}

func (c *crashFile) Sync() error {
	c.b.mu.Lock()
	tripped := c.b.tripped
	c.b.mu.Unlock()
	if tripped {
		return errInjected
	}
	return c.f.Sync()
}

func (c *crashFile) Close() error { return c.f.Close() }

func crashHook(b *crashBudget) func(string, int) (SegFile, error) {
	return func(path string, flag int) (SegFile, error) {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		return &crashFile{f: f, b: b}, nil
	}
}

// crashWorkload builds a small but realistic corpus and record stream:
// real licenses, real overlap groups, so the audit reports below exercise
// the full grouped validation path.
func crashWorkload(t *testing.T) (*license.Corpus, []logstore.Record) {
	t.Helper()
	cfg := workload.Default(8)
	cfg.RecordsPerLicense = 8 // 64 records: enough for several segments
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w.Corpus, w.Records
}

func auditReport(t *testing.T, corpus *license.Corpus, log logstore.Store) core.Report {
	t.Helper()
	aud, err := core.NewAuditor(corpus, log)
	if err != nil {
		t.Fatalf("auditor: %v", err)
	}
	rep, err := aud.Audit()
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	return rep
}

// runToCrash appends records into dir until the injected crash (or the
// records run out), returning how many appends were acknowledged and how
// many were attempted.
func runToCrash(t *testing.T, dir string, opts Options, records []logstore.Record) (acked, attempted int) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		// The crash landed inside Open's own segment creation: zero
		// appends were even attempted.
		if !errors.Is(err, errInjected) {
			t.Fatalf("open under injection: %v", err)
		}
		return 0, 0
	}
	for _, r := range records {
		attempted++
		if err := s.Append(r); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("append under injection: unexpected error %v", err)
			}
			break
		}
		acked++
	}
	// No Close: the process just died. (Release the fd, ignoring errors.)
	if s.f != nil {
		s.f.Close()
	}
	return acked, attempted
}

// measureWrittenBytes runs the full workload with an unlimited budget and
// returns the total bytes the WAL writes — the sweep range.
func measureWrittenBytes(t *testing.T, opts Options, records []logstore.Record) int64 {
	t.Helper()
	b := &crashBudget{remaining: math.MaxInt64}
	opts.OpenSegFile = crashHook(b)
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return b.written
}

func TestCrashRecoveryEveryOffset(t *testing.T) {
	corpus, records := crashWorkload(t)
	opts := Options{SegmentBytes: segmentHeaderSize + 5*recordFrameSize} // FsyncAlways
	total := measureWrittenBytes(t, opts, records)

	// Reference reports for every possible prefix length, computed once
	// from an uninterrupted in-memory store.
	refReport := make(map[int]core.Report)
	report := func(n int) core.Report {
		rep, ok := refReport[n]
		if !ok {
			mem := logstore.NewMem(n)
			for _, r := range records[:n] {
				if err := mem.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			rep = auditReport(t, corpus, mem)
			refReport[n] = rep
		}
		return rep
	}

	step := total / 120
	if step < 1 {
		step = 1
	}
	root := t.TempDir()
	offsets := 0
	for off := int64(0); off <= total; off += step {
		offsets++
		dir := filepath.Join(root, fmt.Sprintf("crash-%06d", off))
		b := &crashBudget{remaining: off}
		inj := opts
		inj.OpenSegFile = crashHook(b)
		acked, attempted := runToCrash(t, dir, inj, records)

		s, err := Open(dir, opts) // clean reopen: the restart after the crash
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		n := int(s.Seq())
		if n < acked {
			t.Fatalf("offset %d: lost synced records: recovered %d < acked %d", off, n, acked)
		}
		if n > attempted {
			t.Fatalf("offset %d: invented records: recovered %d > attempted %d", off, n, attempted)
		}
		checkHistory(t, s, records[:n], fmt.Sprintf("offset %d", off))
		if gotRep := auditReport(t, corpus, s); !reflect.DeepEqual(gotRep, report(n)) {
			t.Fatalf("offset %d: audit report after recovery differs from uninterrupted store with %d records", off, n)
		}
		// The recovered store must accept new appends.
		if err := s.Append(records[0]); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", off, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("offset %d: close after recovery: %v", off, err)
		}
	}
	if offsets < 100 {
		t.Fatalf("swept only %d injection offsets, want >= 100", offsets)
	}
}

// TestCrashRecoveryWithSnapshots repeats the sweep with auto-snapshots
// and compaction in play. Snapshots compact the history, so the prefix
// check gives way to its aggregate form: per-set sums (what the
// validation tree consumes) must match the uninterrupted prefix, and the
// audit report must still be identical.
func TestCrashRecoveryWithSnapshots(t *testing.T) {
	corpus, records := crashWorkload(t)
	opts := Options{
		SegmentBytes:  segmentHeaderSize + 5*recordFrameSize,
		SnapshotEvery: 7,
	}
	total := measureWrittenBytes(t, opts, records)

	step := total / 40
	if step < 1 {
		step = 1
	}
	root := t.TempDir()
	for off := int64(0); off <= total; off += step {
		dir := filepath.Join(root, fmt.Sprintf("crash-%06d", off))
		b := &crashBudget{remaining: off}
		inj := opts
		inj.OpenSegFile = crashHook(b)
		acked, attempted := runToCrash(t, dir, inj, records)

		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		n := int(s.Seq())
		if n < acked || n > attempted {
			t.Fatalf("offset %d: recovered seq %d outside [acked %d, attempted %d]", off, n, acked, attempted)
		}
		if got, want := sums(collect(t, s)), sums(records[:n]); !equalSums(got, want) {
			t.Fatalf("offset %d: per-set sums diverge from uninterrupted prefix of %d", off, n)
		}
		mem := logstore.NewMem(n)
		for _, r := range records[:n] {
			if err := mem.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(auditReport(t, corpus, s), auditReport(t, corpus, mem)) {
			t.Fatalf("offset %d: audit report after recovery differs from uninterrupted store", off)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("offset %d: close after recovery: %v", off, err)
		}
	}
}

// syncCrashFile lets writes through but fails every fsync from the k-th
// on: the "disk lies about durability" case. Written-but-unsynced frames
// may legitimately survive, so recovery may return MORE than was acked —
// never less.
type syncCrashFile struct {
	f *os.File
	b *syncBudget
}

type syncBudget struct {
	mu        sync.Mutex
	remaining int
}

func (c *syncCrashFile) Write(p []byte) (int, error) { return c.f.Write(p) }
func (c *syncCrashFile) Close() error                { return c.f.Close() }
func (c *syncCrashFile) Sync() error {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.b.remaining <= 0 {
		return errInjected
	}
	c.b.remaining--
	return c.f.Sync()
}

func TestCrashRecoveryFailedFsync(t *testing.T) {
	corpus, records := crashWorkload(t)
	opts := Options{SegmentBytes: segmentHeaderSize + 5*recordFrameSize}
	for k := 0; k < 12; k++ {
		dir := filepath.Join(t.TempDir(), "wal")
		b := &syncBudget{remaining: k}
		inj := opts
		inj.OpenSegFile = func(path string, flag int) (SegFile, error) {
			f, err := os.OpenFile(path, flag, 0o644)
			if err != nil {
				return nil, err
			}
			return &syncCrashFile{f: f, b: b}, nil
		}
		acked, attempted := runToCrash(t, dir, inj, records)

		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		n := int(s.Seq())
		if n < acked || n > attempted {
			t.Fatalf("k=%d: recovered %d outside [acked %d, attempted %d]", k, n, acked, attempted)
		}
		checkHistory(t, s, records[:n], fmt.Sprintf("k=%d", k))
		mem := logstore.NewMem(n)
		for _, r := range records[:n] {
			if err := mem.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(auditReport(t, corpus, s), auditReport(t, corpus, mem)) {
			t.Fatalf("k=%d: audit report after recovery differs from uninterrupted store", k)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("k=%d: close: %v", k, err)
		}
	}
}
