package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitset"
	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// updateGolden regenerates the checked-in v1 (kindless) log artifacts
// and the golden audit report. Run `go test ./internal/engine
// -run TestV1KindlessLogCompat -update-golden` ONLY when the fixture
// record set itself changes — the artifacts are frozen at the
// pre-lifecycle wire formats, and every future revision of the ledger
// must keep replaying them unchanged.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the v1 kindless log artifacts and golden audit report")

// v1CompatRecords is the frozen fixture: plain kindless issuances over
// the Example 1 corpus (groups {L1,L2,L4} and {L3,L5}), including one
// aggregate violation so the golden report is non-trivial.
func v1CompatRecords() []logstore.Record {
	return []logstore.Record{
		{Set: bitset.MaskOf(0, 1), Count: 840},
		{Set: bitset.MaskOf(1), Count: 400},
		{Set: bitset.MaskOf(0, 1, 3), Count: 230},
		{Set: bitset.MaskOf(2, 4), Count: 555},
		{Set: bitset.MaskOf(2), Count: 99999}, // violates every equation containing L3
		{Set: bitset.MaskOf(3), Count: 17},
		{Set: bitset.MaskOf(0, 1), Count: 60},
	}
}

// goldenReport is the stable audit-report rendering the compatibility
// check compares byte-for-byte.
type goldenReport struct {
	OK         bool     `json:"ok"`
	Equations  int64    `json:"equations"`
	Groups     int      `json:"groups"`
	Violations []string `json:"violations"`
}

// auditGolden replays one store through an offline distributor over the
// Example 1 corpus and renders the canonical report bytes.
func auditGolden(t *testing.T, store logstore.Store) []byte {
	t.Helper()
	ex := license.NewExample1()
	d := NewDistributor("compat", ex.Schema, ModeOffline, store)
	for i := 0; i < ex.Corpus.Len(); i++ {
		cp := *ex.Corpus.License(i)
		if _, err := d.AddRedistribution(&cp); err != nil {
			t.Fatal(err)
		}
	}
	rep, aud, err := d.AuditContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out := goldenReport{
		OK:         rep.OK(),
		Equations:  rep.Equations,
		Groups:     aud.Grouping().NumGroups(),
		Violations: []string{},
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// readJSONL replays a JSONL log file into an in-memory store.
func readJSONL(t *testing.T, path string) *logstore.Mem {
	t.Helper()
	store := logstore.NewMem(0)
	if err := logstore.ReadFile(path, store.Append); err != nil {
		t.Fatal(err)
	}
	return store
}

// copyTree copies the checked-in artifact (file or directory) into a
// scratch dir, so replays never mutate testdata.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	fi, err := os.Stat(src)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir() {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		copyTree(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
	}
}

// TestV1KindlessLogCompat is the backward-compatibility golden test:
// pre-lifecycle logs — a kindless JSONL file and a v1 WAL segment whose
// frames carry no kind byte — must replay as implicit issues and audit
// to byte-identical reports, now and under every future ledger change.
func TestV1KindlessLogCompat(t *testing.T) {
	td := filepath.Join("testdata", "v1compat")
	jsonlPath := filepath.Join(td, "issued.jsonl")
	walDir := filepath.Join(td, "wal")
	goldenPath := filepath.Join(td, "audit_report.golden.json")

	if *updateGolden {
		regenerateV1Artifacts(t, td, jsonlPath, walDir, goldenPath)
	}

	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	// The JSONL artifact must stay kindless — plain issues serialize
	// exactly as the pre-lifecycle encoder wrote them.
	rawJSONL, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rawJSONL, []byte(`"kind"`)) {
		t.Fatal("v1 JSONL artifact contains a kind key; it must stay kindless")
	}

	fromJSONL := auditGolden(t, readJSONL(t, jsonlPath))

	walCopy := filepath.Join(t.TempDir(), "wal")
	copyTree(t, walDir, walCopy)
	walStore, err := wal.Open(walCopy, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer walStore.Close()
	if n := walStore.Len(); n != len(v1CompatRecords()) {
		t.Fatalf("v1 WAL replayed %d records, want %d", n, len(v1CompatRecords()))
	}
	fromWAL := auditGolden(t, walStore)

	if !bytes.Equal(fromJSONL, fromWAL) {
		t.Errorf("JSONL and WAL replays audit differently:\nJSONL:\n%s\nWAL:\n%s", fromJSONL, fromWAL)
	}
	if !bytes.Equal(fromJSONL, golden) {
		t.Errorf("JSONL replay diverges from golden report:\ngot:\n%s\nwant:\n%s", fromJSONL, golden)
	}
	if !bytes.Equal(fromWAL, golden) {
		t.Errorf("WAL replay diverges from golden report:\ngot:\n%s\nwant:\n%s", fromWAL, golden)
	}
}

// regenerateV1Artifacts rewrites the artifacts. Plain issue records
// still encode bit-for-bit as the v1 formats (kindless JSONL objects,
// 24-byte WAL frames) — asserted here so -update-golden can never
// silently freeze a v2 encoding as "v1".
func regenerateV1Artifacts(t *testing.T, td, jsonlPath, walDir, goldenPath string) {
	t.Helper()
	if err := os.RemoveAll(td); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(td, 0o755); err != nil {
		t.Fatal(err)
	}
	recs := v1CompatRecords()

	jf, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := logstore.WriteAll(jf, recs); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	walStore, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := walStore.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := walStore.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(goldenPath, auditGolden(t, readJSONL(t, jsonlPath)), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("v1 compatibility artifacts regenerated")
}
