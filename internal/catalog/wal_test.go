package catalog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// TestWALBackendReopenResumesState: records issued after a reopen append to
// the replayed WAL, so a second reopen sees both generations and the budget
// they spent together. TestReopenResumesState covers a single reopen.
func TestWALBackendReopenResumesState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	reopen := func() (*Catalog, *Entry) {
		t.Helper()
		c, err := Open(dir, engine.ModeOnline)
		if err != nil {
			t.Fatal(err)
		}
		e := c.Get("m", license.Play)
		if e == nil {
			c.Close()
			t.Fatal("entry lost on reopen")
		}
		return c, e
	}

	c, err := Open(dir, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	corpus := testCorpus(t, "m", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 3), 20); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Second generation: spend the 40 left on the reopened log.
	c2, e2 := reopen()
	if e2.Log.Len() != 3 {
		t.Errorf("first reopen: log Len = %d, want 3", e2.Log.Len())
	}
	if _, err := e2.Dist.Issue(license.Usage, usageRect(t, e2.Corpus, 1, 3), 40); err != nil {
		t.Errorf("remaining budget rejected after WAL reopen: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	c3, e3 := reopen()
	defer c3.Close()
	if e3.Log.Len() != 4 {
		t.Errorf("second reopen: log Len = %d, want 4", e3.Log.Len())
	}
	if _, err := e3.Dist.Issue(license.Usage, usageRect(t, e3.Corpus, 1, 3), 1); !errors.Is(err, engine.ErrAggregateExhausted) {
		t.Errorf("expected exhaustion after second WAL reopen, got %v", err)
	}
}

// TestOpenRefusesJSONLOnlyEntry: an entry whose only log is a JSONL file
// is refused with the migration command and left byte-identical; once a
// WAL sits beside it, the entry opens on the WAL.
func TestOpenRefusesJSONLOnlyEntry(t *testing.T) {
	dir := t.TempDir()
	stem := filepath.Join(dir, "m__play")
	corpus := testCorpus(t, "m", license.Play, 100)
	if err := writeCorpusAtomic(stem+corpusSuffix, corpus); err != nil {
		t.Fatal(err)
	}
	recs := []logstore.Record{{Set: bitset.MaskOf(0), Count: 30}}
	var jsonl bytes.Buffer
	if err := logstore.WriteAll(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stem+logSuffix, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := Open(dir, engine.ModeOnline)
	var merr *wal.MigrationError
	if !errors.As(err, &merr) || !strings.Contains(err.Error(), "-migrate-wal "+stem+walSuffix) {
		t.Fatalf("err = %v, want a *wal.MigrationError naming -migrate-wal", err)
	}
	if got, _ := os.ReadFile(stem + logSuffix); !bytes.Equal(got, jsonl.Bytes()) {
		t.Error("refused JSONL log was modified")
	}
	if _, err := os.Stat(stem + walSuffix); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refusal created a WAL: %v", err)
	}

	// What the migration leaves: a WAL holding the records, beside the
	// untouched JSONL file.
	ws, err := wal.Open(stem+walSuffix, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := c.Get("m", license.Play).Log.Len(); n != len(recs) {
		t.Errorf("entry opened with %d records, want the WAL's %d", n, len(recs))
	}
}

func TestSnapshotAll(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	c, err := Open(dir, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	corpus := testCorpus(t, "m", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 3), 10); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := c.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	info, ok := infos[e]
	if !ok {
		t.Fatal("no snapshot info for WAL entry")
	}
	if info.Seq != 4 {
		t.Errorf("snapshot Seq = %d, want 4", info.Seq)
	}
	if e.Log.SnapshotSeq() != 4 {
		t.Errorf("store SnapshotSeq = %d, want 4", e.Log.SnapshotSeq())
	}
}

// TestWALConfigPropagates checks Config.WAL reaches the opened store.
func TestWALConfigPropagates(t *testing.T) {
	cfg := Config{Mode: engine.ModeOnline, WAL: wal.Options{SnapshotEvery: 2}}
	c, err := OpenWith(filepath.Join(t.TempDir(), "cat"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	corpus := testCorpus(t, "m", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 3), 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Log.SnapshotSeq(); got != 4 {
		t.Errorf("SnapshotSeq = %d, want 4 (auto-snapshot every 2)", got)
	}
	st := e.Log.RecoveryStats()
	if st.SnapshotRecords != 0 || st.TailRecords != 0 || st.TruncatedBytes != 0 {
		t.Errorf("fresh store has nonzero recovery stats: %+v", st)
	}
}
