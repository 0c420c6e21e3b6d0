package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestAckedIssuesSurviveCrash: the wiring run() uses, with the flag
// defaults, acknowledges N issues over HTTP. The process then dies
// without closing the log (the crash model of wal/crash_test.go), and a
// reopen recovers all N and audits them identically.
func TestAckedIssuesSurviveCrash(t *testing.T) {
	const n = 5
	fsync, interval, err := wal.ParseFsync("always") // -fsync
	if err != nil {
		t.Fatal(err)
	}
	opts := wal.Options{Fsync: fsync, Interval: interval}
	path := filepath.Join(t.TempDir(), "issued.wal") // -log
	ex := license.NewExample1()
	serveLog := func() (*wal.Store, *httptest.Server) {
		store, err := openLog("corpus.json", path, "wal", opts) // -log-backend
		if err != nil {
			t.Fatal(err)
		}
		srv, err := newServer(ex.Corpus, store, engine.ModeOnline, 2) // -mode
		if err != nil {
			t.Fatal(err)
		}
		return store, httptest.NewServer(srv.routes())
	}
	audit := func(ts *httptest.Server) []byte {
		resp, err := http.Get(ts.URL + "/v1/audit")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("audit: %d %s %v", resp.StatusCode, body, err)
		}
		return body
	}

	_, ts := serveLog()
	for i := 0; i < n; i++ {
		req := issueRequest{Values: usageValues(ex), Count: 10}
		if code := postJSON(t, ts.URL+"/v1/issue", req, nil); code != http.StatusOK {
			t.Fatalf("issue %d: status %d", i, code)
		}
	}
	before := audit(ts)
	ts.Close()
	// No Close: the process just died.

	store, ts := serveLog()
	defer store.Close()
	defer ts.Close()
	if got := store.Seq(); got != n {
		t.Fatalf("recovered %d of %d acknowledged issues", got, n)
	}
	if after := audit(ts); !bytes.Equal(after, before) {
		t.Errorf("audit after the crash:\n%s\nbefore:\n%s", after, before)
	}
}

// TestOpenLogRefusesJSONL: a JSONL log, a regular file at -log, is
// refused under any -log-backend with the command that migrates it, and
// the file keeps its bytes. With nothing at -log, a backend other than
// wal is unknown: no migration is proposed and nothing is created.
func TestOpenLogRefusesJSONL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "issued.jsonl")
	var jsonl bytes.Buffer
	if err := logstore.WriteAll(&jsonl, []logstore.Record{{Set: bitset.MaskOf(0), Count: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want := "drmaudit -corpus corpus.json -log " + path + " -migrate-wal " + filepath.Join(dir, "issued.wal")
	for _, backend := range []string{"wal", "jsonl"} {
		_, err := openLog("corpus.json", path, backend, wal.Options{})
		var merr *wal.MigrationError
		if !errors.As(err, &merr) || !strings.Contains(err.Error(), want) {
			t.Errorf("-log-backend %s: err = %v, want a *wal.MigrationError naming %q", backend, err, want)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, jsonl.Bytes()) {
			t.Errorf("-log-backend %s: refused log was modified", backend)
		}
	}
	if _, err := openLog("corpus.json", path, "csv", wal.Options{}); err == nil {
		t.Error("-log-backend csv accepted")
	}
	absent := filepath.Join(dir, "issued.wal")
	_, err := openLog("corpus.json", absent, "jsonl", wal.Options{})
	var merr *wal.MigrationError
	if err == nil || errors.As(err, &merr) {
		t.Errorf("-log-backend jsonl with no log: err = %v, want an unknown-backend error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("refusals left %d entries in the log's directory, want 1", len(entries))
	}
}
