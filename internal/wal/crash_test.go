package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/drmerr"
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

// boundaryRecords builds a sound lifecycle log whose frames alternate
// between the v1 (24-byte) and v2 (33-byte) encodings: per six records,
// three plain issues, a TTL issue, a revoke and a transfer.
func boundaryRecords(n int) []logstore.Record {
	sets := benchSets()[:40]
	out := make([]logstore.Record, n)
	for i := range out {
		r := logstore.Record{Set: sets[i%len(sets)], Count: int64(1 + i%9)}
		switch i % 6 {
		case 2:
			r.Expiry = 5000 + int64(i%7)
		case 4:
			r = logstore.Record{Kind: logstore.KindRevoke, Set: out[i-1].Set, Count: 1}
		case 5:
			r.Kind = logstore.KindTransfer
		}
		out[i] = r
	}
	return out
}

// referenceReplay is recovery's verdict on one segment file, computed
// the obvious way over the whole file in memory: parse frames from the
// header on; at the first bad frame, a valid frame at any later byte
// offset means mid-log corruption, and otherwise everything from the
// bad frame on is a torn tail.
func referenceReplay(data []byte) (recs []logstore.Record, end int, corrupt bool) {
	off := segmentHeaderSize
	for off < len(data) {
		rec, n, status := parseFrame(data[off:])
		if status != frameOK {
			for o := off + 1; o+recordFrameSize <= len(data); o++ {
				if _, _, st := parseFrame(data[o:]); st == frameOK {
					return recs, off, true
				}
			}
			return recs, off, false
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, false
}

// refillEnds returns the file offsets at which the replay buffer's
// contents end after each refill, replaying a segment whose frames have
// the given sizes: the arithmetic of replaySegment's scan loop.
func refillEnds(size int64, frames []int) []int64 {
	var ends []int64
	read, buffered := int64(segmentHeaderSize), 0
	for read < size {
		for buffered >= ledgerFrameSize {
			buffered -= frames[0]
			frames = frames[1:]
		}
		n := int(min(int64(replayBufSize-buffered), size-read))
		read += int64(n)
		buffered += n
		ends = append(ends, read)
	}
	return ends
}

// segmentImage appends records to a fresh store and returns the bytes
// of its one segment.
func segmentImage(t *testing.T, records []logstore.Record) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncOS})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(records); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashRecoveryBufferBoundaries sweeps torn tails and bit flips
// across the replay buffer's refills, which the small-segment sweeps
// above never reach. A log of mixed v1 and v2 frames spanning more than
// three buffers is cut, and separately has one byte flipped, at every
// offset within one frame of each refill boundary; it is also damaged
// over more than a buffer's length, and recovered whole at every
// alignment of its frames to the refills. Each recovery must agree with
// referenceReplay: the same records (Seq and ForEach), the same
// truncated size and RecoveryStats, and KindStoreCorrupt for every
// mid-log flip.
func TestCrashRecoveryBufferBoundaries(t *testing.T) {
	check := func(label string, records []logstore.Record, data []byte) {
		t.Helper()
		want, end, corrupt := referenceReplay(data)
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Fsync: FsyncOS})
		if corrupt {
			if !errors.Is(err, drmerr.ErrStoreCorrupt) {
				t.Fatalf("%s: mid-log damage: err = %v, want store corrupt", label, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		defer s.Close()
		if got := s.Seq(); got != uint64(len(want)) {
			t.Fatalf("%s: Seq = %d, want %d", label, got, len(want))
		}
		if !slices.Equal(want, records[:len(want)]) {
			t.Fatalf("%s: reference walk is not a prefix of the log", label)
		}
		fi, err := os.Stat(segmentPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(end) {
			t.Fatalf("%s: segment size %d after recovery, want %d", label, fi.Size(), end)
		}
		st := s.RecoveryStats()
		st.Duration = 0
		if wantSt := (RecoveryStats{TailRecords: len(want), SegmentsScanned: 1, TruncatedBytes: int64(len(data) - end)}); st != wantSt {
			t.Fatalf("%s: RecoveryStats = %+v, want %+v", label, st, wantSt)
		}
		if got := collect(t, s); !slices.Equal(got, logstore.Compact(want)) {
			t.Fatalf("%s: ForEach differs from the compacted reference prefix", label)
		}
	}

	records := boundaryRecords(7500)
	orig := segmentImage(t, records)
	frames := make([]int, len(records))
	for i, r := range records {
		frames[i] = int(frameSize(r))
	}
	ends := refillEnds(int64(len(orig)), frames)
	if len(ends) < 4 {
		t.Fatalf("log of %d bytes fills %d replay buffers, want more than 3", len(orig), len(ends))
	}
	for _, b := range ends[:len(ends)-1] {
		for c := b - ledgerFrameSize; c <= b+ledgerFrameSize; c++ {
			check(fmt.Sprintf("cut at %d (refill end %d)", c, b), records, orig[:c])
			flipped := slices.Clone(orig)
			flipped[c] ^= 0xff
			check(fmt.Sprintf("flip at %d (refill end %d)", c, b), records, flipped)
		}
	}

	// Damage longer than the buffer: the next valid frame lies more than
	// one read of the bad-frame scan away.
	wiped := slices.Clone(orig)
	clear(wiped[1000 : 1000+replayBufSize+100])
	check("wiped past one buffer", records, wiped)

	// Every split a refill can make. Frames start 3k bytes into the
	// segment's frame area and refills end 3k+1 bytes past some frame
	// start, so a refill can split a frame only at those points. A
	// prefix of 4(57−k) plain and 3k TTL issues is 5,472+3k bytes long:
	// over k = 0..56 the first refill crosses the 171 bytes of the
	// six-frame pattern at every such point.
	records = records[:2600] // a little over one buffer
	sets := benchSets()
	for k := range 57 {
		var prefix []logstore.Record
		for i := range 4 * (57 - k) {
			prefix = append(prefix, logstore.Record{Set: sets[i%40], Count: 1})
		}
		for i := range 3 * k {
			prefix = append(prefix, logstore.Record{Set: sets[i%40], Count: 1, Meta: logstore.Meta{Expiry: 9000}})
		}
		shifted := append(prefix, records...)
		check(fmt.Sprintf("alignment %d", k), shifted, segmentImage(t, shifted))
	}
}

// TestTornTailScanFindsStraddlingFrame plants one valid frame, v1 or v2,
// in debris at every offset around a read boundary of the bad-frame
// scan: the reads' ledgerFrameSize−1 overlap must find it whether or not
// it straddles the boundary, and pure debris must hold no frame.
func TestTornTailScanFindsStraddlingFrame(t *testing.T) {
	buf := make([]byte, replayBufSize)
	debris := make([]byte, 2*replayBufSize)
	if found, err := anyValidFrame(bytes.NewReader(debris), 0, int64(len(debris)), buf); err != nil || found {
		t.Fatalf("pure debris: found = %v, err = %v", found, err)
	}
	for _, frame := range [][]byte{
		appendFrame(nil, logstore.Record{Set: 3, Count: 7}),
		appendFrame(nil, logstore.Record{Kind: logstore.KindRevoke, Set: 3, Count: 7}),
	} {
		for pos := replayBufSize - 2*ledgerFrameSize; pos <= replayBufSize+ledgerFrameSize; pos++ {
			data := slices.Clone(debris)
			copy(data[pos:], frame)
			found, err := anyValidFrame(bytes.NewReader(data), 0, int64(len(data)), buf)
			if err != nil || !found {
				t.Fatalf("%d-byte frame at %d: found = %v, err = %v", len(frame), pos, found, err)
			}
		}
	}
}
