package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/geometry"
	"repro/internal/interval"
	"repro/internal/license"
	"repro/internal/logstore"
)

// testCorpus builds a small single-axis corpus for the given pair.
func testCorpus(t *testing.T, content string, perm license.Permission, budgets ...int64) *license.Corpus {
	t.Helper()
	schema := geometry.MustSchema(geometry.Axis{Name: "period", Kind: geometry.KindInterval})
	c := license.NewCorpus(schema)
	for i, b := range budgets {
		lo := int64(i * 5) // consecutive licenses overlap
		_, err := c.Add(&license.License{
			Name:       "L",
			Kind:       license.Redistribution,
			Content:    content,
			Permission: perm,
			Rect:       geometry.MustRect(schema, geometry.IntervalValue(interval.New(lo, lo+10))),
			Aggregate:  b,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func usageRect(t *testing.T, c *license.Corpus, lo, hi int64) geometry.Rect {
	t.Helper()
	return geometry.MustRect(c.Schema(), geometry.IntervalValue(interval.New(lo, hi)))
}

func TestOpenEmptyAndAdd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	c, err := Open(dir, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 {
		t.Errorf("fresh catalog has %d entries", c.Len())
	}
	e, err := c.Add(testCorpus(t, "movie-1", license.Play, 100, 200))
	if err != nil {
		t.Fatal(err)
	}
	if e.Content != "movie-1" || e.Permission != license.Play {
		t.Errorf("entry = %+v", e)
	}
	if c.Get("movie-1", license.Play) != e {
		t.Error("Get after Add failed")
	}
	if c.Get("movie-1", license.Copy) != nil {
		t.Error("Get of absent permission succeeded")
	}
	// The corpus file must exist on disk.
	if _, err := os.Stat(filepath.Join(dir, "movie-1__play.corpus.json")); err != nil {
		t.Errorf("corpus file missing: %v", err)
	}
}

func TestAddRejectsDuplicatesAndEmpty(t *testing.T) {
	c, err := Open(t.TempDir(), engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Add(testCorpus(t, "m", license.Play, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(testCorpus(t, "m", license.Play, 10)); err == nil {
		t.Error("duplicate pair accepted")
	}
	schema := geometry.MustSchema(geometry.Axis{Name: "x", Kind: geometry.KindInterval})
	if _, err := c.Add(license.NewCorpus(schema)); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestReopenResumesState(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	corpus := testCorpus(t, "movie-2", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "movie-2__play.wal")); err != nil {
		t.Fatalf("WAL dir missing: %v", err)
	}
	// Issue 60 of the 100 budget in three records, then close.
	for i := 0; i < 3; i++ {
		if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 3), 20); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log must replay so only 40 counts remain.
	c2, err := Open(dir, engine.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("reopened catalog has %d entries", c2.Len())
	}
	e2 := c2.Get("movie-2", license.Play)
	if e2 == nil {
		t.Fatal("entry lost across reopen")
	}
	if e2.Log.Len() != 3 {
		t.Errorf("reopened log Len = %d, want 3", e2.Log.Len())
	}
	r := usageRect(t, e2.Corpus, 1, 3)
	if _, err := e2.Dist.Issue(license.Usage, r, 41); !errors.Is(err, engine.ErrAggregateExhausted) {
		t.Errorf("expected exhaustion after reopen, got %v", err)
	}
	if _, err := e2.Dist.Issue(license.Usage, r, 40); err != nil {
		t.Errorf("remaining budget rejected: %v", err)
	}
}

func TestAcquirePersistsAndRegroups(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, engine.ModeOffline)
	if err != nil {
		t.Fatal(err)
	}
	corpus := testCorpus(t, "m3", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	// Acquire a disjoint license: groups 1 → 2, persisted.
	schema := e.Corpus.Schema()
	far := &license.License{
		Name: "L-far", Kind: license.Redistribution, Content: "m3",
		Permission: license.Play,
		Rect:       geometry.MustRect(schema, geometry.IntervalValue(interval.New(1000, 1010))),
		Aggregate:  50,
	}
	if err := c.Acquire("m3", license.Play, far); err != nil {
		t.Fatal(err)
	}
	if e.Dist.NumGroups() != 2 {
		t.Errorf("groups = %d, want 2", e.Dist.NumGroups())
	}
	if err := c.Acquire("nope", license.Play, far); err == nil {
		t.Error("acquire on missing entry accepted")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen sees both licenses.
	c2, err := Open(dir, engine.ModeOffline)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Get("m3", license.Play).Corpus.Len(); got != 2 {
		t.Errorf("reopened corpus has %d licenses, want 2", got)
	}
}

func TestEntriesSortedAndAuditAll(t *testing.T) {
	c, err := Open(t.TempDir(), engine.ModeOffline)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, spec := range []struct {
		content string
		perm    license.Permission
	}{
		{"b-movie", license.Play},
		{"a-movie", license.Play},
		{"a-movie", license.Copy},
	} {
		if _, err := c.Add(testCorpus(t, spec.content, spec.perm, 100)); err != nil {
			t.Fatal(err)
		}
	}
	entries := c.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Content != "a-movie" || entries[0].Permission != license.Copy {
		t.Errorf("entries[0] = (%s, %s)", entries[0].Content, entries[0].Permission)
	}
	if entries[2].Content != "b-movie" {
		t.Errorf("entries[2] = %s", entries[2].Content)
	}
	// Over-issue on one entry; AuditAll must flag exactly that one.
	e := c.Get("a-movie", license.Play)
	if _, err := e.Dist.Issue(license.Usage, usageRect(t, e.Corpus, 1, 2), 150); err != nil {
		t.Fatal(err)
	}
	reports, err := c.AuditAll(1)
	if err != nil {
		t.Fatal(err)
	}
	for entry, rep := range reports {
		wantOK := entry != e
		if rep.OK() != wantOK {
			t.Errorf("(%s,%s): ok=%v want %v", entry.Content, entry.Permission, rep.OK(), wantOK)
		}
	}
}

func TestOpenRejectsCorruptCorpus(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "x__play"+corpusSuffix)
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, engine.ModeOnline); err == nil {
		t.Error("corrupt corpus accepted")
	}
}

func TestKeyEscaping(t *testing.T) {
	c, err := Open(t.TempDir(), engine.ModeOffline)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Contents with separators must not collide or escape the directory.
	weird := "a/b c__d"
	if _, err := c.Add(testCorpus(t, weird, license.Play, 10)); err != nil {
		t.Fatal(err)
	}
	if c.Get(weird, license.Play) == nil {
		t.Error("weird content not retrievable")
	}
}

// TestIssuedRecordSurvivesCrash: a catalog opened with the default
// config acknowledges an issue, and the process dies without closing it.
// The reopened catalog holds the record.
func TestIssuedRecordSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, engine.ModeOffline)
	if err != nil {
		t.Fatal(err)
	}
	corpus := testCorpus(t, "m9", license.Play, 100)
	e, err := c.Add(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Dist.Issue(license.Usage, usageRect(t, corpus, 1, 2), 10); err != nil {
		t.Fatal(err)
	}
	// No Close: the process just died.

	c2, err := Open(dir, engine.ModeOffline)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	recs, err := logstore.Collect(c2.Get("m9", license.Play).Log)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Count != 10 {
		t.Errorf("recovered %+v, want the one acknowledged issue of 10", recs)
	}
}
