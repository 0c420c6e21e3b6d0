package drm_test

import (
	"errors"
	"path/filepath"
	"testing"

	drm "repro"
)

// TestIntegrationPaperScale drives the whole stack at the paper's largest
// evaluation point (N = 35, ~22k log records) through the public facade:
// generation, auditing, capacity and explanations — one flow, every
// subsystem.
func TestIntegrationPaperScale(t *testing.T) {
	cfg := drm.DefaultWorkload(35)
	cfg.Seed = 4
	w, err := drm.GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Records); got != 35*630 {
		t.Fatalf("records = %d", got)
	}

	// Batch audit.
	store := drm.NewMemLog()
	for _, r := range w.Records {
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	aud, err := drm.NewAuditor(w.Corpus, store)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := aud.Audit()
	if err != nil {
		t.Fatal(err)
	}
	grouping := aud.Grouping()
	if grouping.NumGroups() < 2 {
		t.Fatalf("groups = %d", grouping.NumGroups())
	}
	if drm.Gain(grouping) <= 1 {
		t.Errorf("gain = %v", drm.Gain(grouping))
	}

	// Capacity is consistent: every group's consumption matches C⟨S⟩ and
	// utilization is sane.
	capRep, err := drm.Capacity(aud.Trees())
	if err != nil {
		t.Fatal(err)
	}
	if len(capRep.Rows) != 35 || len(capRep.Groups) != grouping.NumGroups() {
		t.Fatalf("capacity shape: %d rows, %d groups", len(capRep.Rows), len(capRep.Groups))
	}
	var consumed int64
	for _, g := range capRep.Groups {
		consumed += g.Consumed
	}
	var logged int64
	for _, r := range w.Records {
		logged += r.Count
	}
	if consumed != logged {
		t.Errorf("capacity consumption %d != logged %d", consumed, logged)
	}

	// Explanations agree with every violation.
	exps, err := drm.ExplainReport(aud.Trees(), rep)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exps {
		if e.CV != rep.Violations[i].CV || e.AV != rep.Violations[i].AV {
			t.Errorf("explanation %d disagrees with violation", i)
		}
	}
}

// TestIntegrationCatalogLifecycle runs the persistent multi-content path
// through the facade: create a catalog, issue online, reopen, audit.
func TestIntegrationCatalogLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "catalog")
	cat, err := drm.OpenCatalog(dir, drm.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	ex := drm.Example1()
	entry, err := cat.Add(ex.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entry.Dist.Issue(drm.Usage, ex.Usage1.Rect, 800); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, err := drm.OpenCatalog(dir, drm.ModeOnline)
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	entry2 := cat2.Get("K", drm.Play)
	if entry2 == nil {
		t.Fatal("entry lost across reopen")
	}
	// The reopened corpus carries its own decoded schema; rebuild L_U^1's
	// rectangle against it (same period, same India region).
	usage, err := drm.NewRect(entry2.Corpus.Schema(),
		drm.IntervalValue(ex.Usage1.Rect.Value(0).Interval()),
		drm.SetValue(drm.World().MustResolve("India")),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Headroom reflects the pre-restart issuance: the {L1,L2} equation has
	// 3000 − 800 = 2200 left, the {L2} equation 1000; issuing 2200 against
	// {L1,L2}-shaped usage still passes, one more unit fails.
	if _, err := entry2.Dist.Issue(drm.Usage, usage, 2200); err != nil {
		t.Fatalf("post-restart issuance rejected: %v", err)
	}
	if _, err := entry2.Dist.Issue(drm.Usage, usage, 1); !errors.Is(err, drm.ErrAggregateExhausted) {
		t.Errorf("expected exhaustion, got %v", err)
	}
	reports, err := cat2.AuditAll(2)
	if err != nil {
		t.Fatal(err)
	}
	for e, rep := range reports {
		if !rep.OK() {
			t.Errorf("(%s,%s) audit dirty: %v", e.Content, e.Permission, rep.Violations)
		}
	}
}
