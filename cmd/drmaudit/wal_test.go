package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/logstore"
	"repro/internal/wal"
)

func TestAuditMigrateThenAuditWAL(t *testing.T) {
	dir := t.TempDir()
	corpus, logPath := writeExample1(t, dir, 0)
	walDir := filepath.Join(dir, "issued.wal")

	// Audit the JSONL log and migrate it.
	var out bytes.Buffer
	code, err := run([]string{"-corpus", corpus, "-log", logPath, "-migrate-wal", walDir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "migrated:") {
		t.Errorf("output missing migration line:\n%s", out.String())
	}

	// Auditing the migrated WAL (backend auto-detected from the
	// directory) gives the same verdict and equation count.
	out.Reset()
	code, err = run([]string{"-corpus", corpus, "-log", walDir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("WAL audit exit code = %d, want 0\n%s", code, out.String())
	}
	for _, want := range []string{
		"groups:      2 [{1,2,4} {3,5}]",
		"10 grouped (vs 31 undivided)",
		"OK — no aggregate violations",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("WAL audit output missing %q:\n%s", want, out.String())
		}
	}

	// Re-running the migration into the now-populated target must refuse.
	out.Reset()
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-migrate-wal", walDir}, &out); err == nil {
		t.Error("migration into non-empty WAL accepted")
	}
}

// TestAuditMigrateRefusesNettedOutWAL: a WAL whose history nets to
// nothing — five issued, five revoked, snapshotted — still has a
// history, and migration must not merge another one into it.
func TestAuditMigrateRefusesNettedOutWAL(t *testing.T) {
	dir := t.TempDir()
	corpus, logPath := writeExample1(t, dir, 0)
	walDir := filepath.Join(dir, "issued.wal")
	ws, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := bitset.MaskOf(0)
	for _, r := range []logstore.Record{
		{Set: set, Count: 5},
		{Kind: logstore.KindRevoke, Set: set, Count: 5},
	} {
		if err := ws.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ws.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = run([]string{"-corpus", corpus, "-log", logPath, "-migrate-wal", walDir}, &out)
	if err == nil || !strings.Contains(err.Error(), "non-empty WAL") {
		t.Fatalf("migration into a netted-out WAL: err = %v, want refusal\n%s", err, out.String())
	}
	ws, err = wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if seq := ws.Seq(); seq != 2 {
		t.Fatalf("refused migration left seq %d, want the original 2", seq)
	}
}

func TestAuditMigratePreservesViolations(t *testing.T) {
	dir := t.TempDir()
	corpus, logPath := writeExample1(t, dir, 700) // over-issues {L2}
	walDir := filepath.Join(dir, "issued.wal")
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-migrate-wal", walDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// The migrated log audits identically to its JSONL source.
	audit := func(log string) jsonReport {
		var out bytes.Buffer
		code, err := run([]string{"-corpus", corpus, "-log", log, "-json"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 {
			t.Fatalf("%s: exit code = %d, want 2\n%s", log, code, out.String())
		}
		var doc jsonReport
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	src, migrated := audit(logPath), audit(walDir)
	if migrated.Equations != src.Equations || !slices.Equal(migrated.Violations, src.Violations) {
		t.Errorf("WAL audit: %d equations, violations %q\nJSONL source: %d equations, violations %q",
			migrated.Equations, migrated.Violations, src.Equations, src.Violations)
	}
}

func TestAuditCompactWAL(t *testing.T) {
	dir := t.TempDir()
	corpus, logPath := writeExample1(t, dir, 0)
	walDir := filepath.Join(dir, "issued.wal")
	var out bytes.Buffer
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-migrate-wal", walDir}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err := run([]string{"-corpus", corpus, "-log", walDir, "-compact"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "compacted:") {
		t.Errorf("output missing compaction line:\n%s", out.String())
	}
	// The compacted WAL still audits clean.
	ws, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	recs, err := logstore.Collect(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Error("compaction emptied the WAL")
	}
}
