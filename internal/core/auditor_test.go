package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/vtree"
	"repro/internal/workload"
)

// TestAuditorHeadroomExample1 pins the cross-check on the paper's
// example: {L2} has 600 left under Table 2, exactly what the undivided
// tree says, and no answer is given before an audit has run to
// completion.
func TestAuditorHeadroomExample1(t *testing.T) {
	_, full, _, a := example1Setup(t)
	aud := example1Auditor(t)
	set := bitset.MaskOf(1)
	if _, err := aud.Headroom(set); !errors.Is(err, drmerr.ErrAuditIncomplete) {
		t.Fatalf("before any audit: err = %v, want ErrAuditIncomplete", err)
	}
	if _, err := aud.AuditContext(cancelledCtx()); !errors.Is(err, drmerr.ErrAuditIncomplete) {
		t.Fatalf("cancelled audit err = %v", err)
	}
	if _, err := aud.Headroom(set); !errors.Is(err, drmerr.ErrAuditIncomplete) {
		t.Fatalf("after a cut-short audit: err = %v, want ErrAuditIncomplete", err)
	}
	if _, err := aud.Audit(); err != nil {
		t.Fatal(err)
	}
	room, err := aud.Headroom(set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Headroom(set, a)
	if err != nil {
		t.Fatal(err)
	}
	if room != 600 || room != want {
		t.Errorf("Headroom({2}) = %d, want 600 (undivided: %d)", room, want)
	}
	if _, err := aud.Headroom(0); !errors.Is(err, drmerr.ErrInvalidInput) {
		t.Errorf("empty set err = %v, want ErrInvalidInput", err)
	}
	// {L1,L3} spans the two groups — impossible under Corollary 1.1.
	if _, err := aud.Headroom(bitset.MaskOf(0, 2)); !errors.Is(err, drmerr.ErrCrossGroup) {
		t.Errorf("cross-group set err = %v, want ErrCrossGroup", err)
	}
}

// TestAuditorHeadroomMatchesUndivided is the cross-check's property: on
// seeded multi-group workloads whose budgets are tight enough to violate
// some groups, Auditor.Headroom after a complete audit equals the
// undivided tree's superset minimum over all N licenses for every
// observed set, including sets in a clean group whose answer another
// group's deficit lowers.
func TestAuditorHeadroomMatchesUndivided(t *testing.T) {
	lowered := 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		lo := int64(50 + r.Intn(800))
		w, err := workload.Generate(workload.Config{
			N:                 4 + r.Intn(9),
			Groups:            2 + r.Intn(3),
			Seed:              seed,
			RecordsPerLicense: 30,
			AggregateLo:       lo,
			AggregateHi:       lo + int64(r.Intn(1200)),
			CountLo:           10,
			CountHi:           30,
		})
		if err != nil {
			t.Fatal(err)
		}
		aud, err := NewAuditor(w.Corpus, w.Store())
		if err != nil {
			t.Fatal(err)
		}
		aud.Workers = 1 + r.Intn(4)
		if _, err := aud.Headroom(w.Records[0].Set); !errors.Is(err, drmerr.ErrAuditIncomplete) {
			t.Fatalf("seed %d: before the first audit err = %v, want ErrAuditIncomplete", seed, err)
		}
		rep, err := aud.Audit()
		if err != nil {
			t.Fatal(err)
		}
		full, err := vtree.BuildRecords(w.Corpus.Len(), w.Records)
		if err != nil {
			t.Fatal(err)
		}
		agg := w.Corpus.Aggregates()
		seen := map[bitset.Mask]bool{}
		for _, rec := range w.Records {
			if seen[rec.Set] {
				continue
			}
			seen[rec.Set] = true
			got, err := aud.Headroom(rec.Set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.Headroom(rec.Set, agg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d: Headroom(%v) = %d, undivided %d", seed, rec.Set, got, want)
			}
			k := aud.Grouping().GroupOf(rec.Set.Min())
			if !rep.PerGroup[k].OK() {
				continue
			}
			for j, res := range rep.PerGroup {
				if j != k && !res.OK() {
					lowered++
					break
				}
			}
		}
	}
	if lowered == 0 {
		t.Fatal("no clean-group set was checked beside a violated group")
	}
}
