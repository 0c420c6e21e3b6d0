package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/drmerr"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/signature"
)

// writeExample1 persists the paper's corpus and a log (Table 2 plus an
// optional violating record) into dir, returning the two paths.
func writeExample1(t *testing.T, dir string, extra int64) (string, string) {
	t.Helper()
	ex := license.NewExample1()
	corpusPath := filepath.Join(dir, "corpus.json")
	cf, err := os.Create(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := license.EncodeCorpus(cf, ex.Corpus); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	var records []logstore.Record
	for _, e := range ex.Log {
		records = append(records, logstore.Record{Set: e.Set, Count: e.Count})
	}
	if extra > 0 {
		records = append(records, logstore.Record{Set: 0b00010, Count: extra}) // {L2}
	}
	logPath := filepath.Join(dir, "log.jsonl")
	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := logstore.WriteAll(lf, records); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	return corpusPath, logPath
}

func TestAuditCleanLog(t *testing.T) {
	corpus, logPath := writeExample1(t, t.TempDir(), 0)
	var out bytes.Buffer
	code, err := run([]string{"-corpus", corpus, "-log", logPath, "-compare"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	s := out.String()
	for _, want := range []string{
		"groups:      2 [{1,2,4} {3,5}]",
		"gain (eq 3): 3.10x",
		"OK — no aggregate violations",
		"10 grouped (vs 31 undivided)",
		"compare:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestAuditViolationsWithExplain(t *testing.T) {
	corpus, logPath := writeExample1(t, t.TempDir(), 700) // C⟨{2}⟩ = 1100
	var out bytes.Buffer
	code, err := run([]string{"-corpus", corpus, "-log", logPath, "-explain"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	s := out.String()
	for _, want := range []string{"VIOLATED", "A[{2}] = 1000", "C[{2}] = 1100"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestAuditWritesDOT(t *testing.T) {
	dir := t.TempDir()
	corpus, logPath := writeExample1(t, dir, 0)
	dot := filepath.Join(dir, "overlap.dot")
	var out bytes.Buffer
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-dot", dot}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph overlap {") {
		t.Errorf("dot file = %q", data)
	}
}

func TestAuditCompareSkipsLargeN(t *testing.T) {
	corpus, logPath := writeExample1(t, t.TempDir(), 0)
	var out bytes.Buffer
	if _, err := run([]string{"-corpus", corpus, "-log", logPath,
		"-compare", "-max-original", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("output = %q", out.String())
	}
}

func TestAuditErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-corpus", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing corpus accepted")
	}
	corpus, _ := writeExample1(t, t.TempDir(), 0)
	if _, err := run([]string{"-corpus", corpus, "-log", "/nonexistent.jsonl"}, &out); err == nil {
		t.Error("missing log accepted")
	}
	if _, err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	// A torn JSONL tail fails the audit with the bad record's location.
	corpus, logPath := writeExample1(t, t.TempDir(), 0)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("{\"set\":3,\"cou")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{"-corpus", corpus, "-log", logPath}, &out); !errors.Is(err, drmerr.ErrStoreCorrupt) ||
		!strings.Contains(err.Error(), "byte offset") {
		t.Errorf("torn log: err = %v, want store corrupt naming the byte offset", err)
	}
}

func TestAuditCapacityReport(t *testing.T) {
	corpus, logPath := writeExample1(t, t.TempDir(), 0)
	var out bytes.Buffer
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-capacity"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"capacity:", "headroom", "utilization"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestAuditJSONOutput(t *testing.T) {
	corpus, logPath := writeExample1(t, t.TempDir(), 0)
	var out bytes.Buffer
	code, err := run([]string{"-corpus", corpus, "-log", logPath, "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d", code)
	}
	var doc jsonReport
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Licenses != 5 || doc.Equations != 10 || !doc.OK {
		t.Errorf("doc = %+v", doc)
	}
	if len(doc.Groups) != 2 || doc.Gain < 3.09 || doc.Gain > 3.11 {
		t.Errorf("groups/gain = %v %v", doc.Groups, doc.Gain)
	}
	// Violating log: exit 2 and violations listed.
	corpus2, logPath2 := writeExample1(t, t.TempDir(), 700)
	out.Reset()
	code, err = run([]string{"-corpus", corpus2, "-log", logPath2, "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OK || len(doc.Violations) == 0 {
		t.Errorf("doc = %+v", doc)
	}
}

// TestAuditCompactRefusesJSONL: -compact only snapshots a WAL; on a
// JSONL file it is refused and the file keeps its bytes.
func TestAuditCompactRefusesJSONL(t *testing.T) {
	corpus, logPath := writeExample1(t, t.TempDir(), 0)
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-compact"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-migrate-wal") {
		t.Errorf("-compact on a JSONL file: err = %v, want a refusal naming -migrate-wal", err)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Error("refused -compact modified the log")
	}
}

func TestAuditSignedCorpus(t *testing.T) {
	dir := t.TempDir()
	ex := license.NewExample1()
	_, priv, err := signature.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	signedPath := filepath.Join(dir, "corpus.signed")
	sf, err := os.Create(signedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := signature.WriteSignedCorpus(sf, ex.Corpus, priv); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	_, logPath := writeExample1(t, dir, 0)

	var out bytes.Buffer
	code, err := run([]string{"-corpus", signedPath, "-log", logPath, "-signed"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !strings.Contains(out.String(), "issuer:      verified") {
		t.Errorf("code=%d output=%q", code, out.String())
	}
	// Pinned wrong issuer: rejected.
	otherPub, _, err := signature.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if _, err := run([]string{"-corpus", signedPath, "-log", logPath,
		"-signed", "-issuer", signature.KeyToString(otherPub)}, &out); err == nil {
		t.Error("foreign issuer pin accepted")
	}
	// Unsigned corpus with -signed flag: rejected.
	plainCorpus, _ := writeExample1(t, t.TempDir(), 0)
	if _, err := run([]string{"-corpus", plainCorpus, "-log", logPath, "-signed"}, &out); err == nil {
		t.Error("unsigned corpus accepted as signed")
	}
}

func TestAuditForecast(t *testing.T) {
	corpus, logPath := writeExample1(t, t.TempDir(), 0)
	var out bytes.Buffer
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-forecast", "period"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"forecast (expiry timeline):", "SPLIT", "equations"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if _, err := run([]string{"-corpus", corpus, "-log", logPath, "-forecast", "nope"}, &out); err == nil {
		t.Error("unknown forecast axis accepted")
	}
}
