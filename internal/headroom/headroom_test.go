package headroom_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/headroom"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/overlap"
	"repro/internal/vtree"
	"repro/internal/workload"
)

// oracleRoom recomputes headroom the pre-cache way: build the full
// validation tree from the log and walk every superset equation over the
// whole universe. The cache must agree with this exactly.
func oracleRoom(t *testing.T, n int, log logstore.Store, aggs []int64, set bitset.Mask) int64 {
	t.Helper()
	tree, err := vtree.Build(n, log)
	if err != nil {
		t.Fatalf("oracle tree: %v", err)
	}
	room, err := tree.Headroom(set, aggs)
	if err != nil {
		t.Fatalf("oracle headroom(%v): %v", set, err)
	}
	return room
}

// grouping2 is a hand-built two-group universe over 6 licenses.
func grouping2() overlap.Grouping {
	return overlap.Grouping{
		N: 6,
		Groups: []overlap.Group{
			{Members: bitset.MaskOf(0, 1, 2), Size: 3},
			{Members: bitset.MaskOf(3, 4, 5), Size: 3},
		},
	}
}

func memLog(t *testing.T, recs ...logstore.Record) *logstore.Mem {
	t.Helper()
	m := logstore.NewMem(len(recs))
	for _, r := range recs {
		if err := m.Append(r); err != nil {
			t.Fatalf("append %v: %v", r, err)
		}
	}
	return m
}

func TestEmptyLogHeadroomIsAggregateSum(t *testing.T) {
	aggs := []int64{10, 20, 30, 40, 50, 60}
	c, err := headroom.Build(context.Background(), grouping2(), aggs, memLog(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []bitset.Mask{bitset.MaskOf(0), bitset.MaskOf(1, 2), bitset.MaskOf(3, 4, 5)} {
		room, err := c.Headroom(set)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleRoom(t, 6, memLog(t), aggs, set)
		if room != want {
			t.Errorf("Headroom(%v) = %d, oracle %d", set, room, want)
		}
	}
}

// observedSets collects the distinct belongs-to sets of a workload log.
func observedSets(recs []logstore.Record) []bitset.Mask {
	seen := map[bitset.Mask]bool{}
	var out []bitset.Mask
	for _, r := range recs {
		if !seen[r.Set] {
			seen[r.Set] = true
			out = append(out, r.Set)
		}
	}
	return out
}

// TestBuildMatchesTreeWalk checks the central equivalence on generated
// corpora: for every observed set and every singleton, the cached
// headroom equals the full-universe tree walk.
func TestBuildMatchesTreeWalk(t *testing.T) {
	for _, cfg := range []workload.Config{
		{N: 6, Groups: 2, Dims: 2, RecordsPerLicense: 30, Seed: 1},
		{N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 40, Seed: 7},
		{N: 12, Groups: 4, Dims: 3, RecordsPerLicense: 25, Seed: 42},
	} {
		w := workload.MustGenerate(cfg)
		grouping := overlap.GroupsOf(w.Corpus)
		aggs := w.Corpus.Aggregates()
		log := w.Store()
		c, err := headroom.Build(context.Background(), grouping, aggs, log)
		if err != nil {
			t.Fatalf("N=%d: %v", cfg.N, err)
		}
		sets := observedSets(w.Records)
		for i := 0; i < cfg.N; i++ {
			sets = append(sets, bitset.MaskOf(i))
		}
		for _, set := range sets {
			room, err := c.Headroom(set)
			if err != nil {
				t.Fatalf("N=%d Headroom(%v): %v", cfg.N, set, err)
			}
			if want := oracleRoom(t, cfg.N, log, aggs, set); room != want {
				t.Errorf("N=%d seed=%d: Headroom(%v) = %d, oracle %d",
					cfg.N, cfg.Seed, set, room, want)
			}
		}
	}
}

// admission is one step of an admission sequence; a zero count asks
// for exactly the oracle's room.
type admission struct {
	set   bitset.Mask
	count int64
}

// TestAdmitSequenceMatchesOracle drives admission sequences and checks
// every decision and every reported room against a tree rebuilt from
// scratch before each step; accepted counts are appended to the log.
// Every set's headroom is checked before and after the sequence, and
// Verify stays clean. The cases are a random sequence over a generated
// workload, and three hand-built single-group corpora: sets that keep
// bringing unobserved licenses into the network, a group all of whose
// licenses are observed (every set checked, then one set exhausted),
// and admissions that end up covering their group.
func TestAdmitSequenceMatchesOracle(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 10, Seed: 3,
		// Budgets tight enough that the sequence drains some groups and
		// exercises rejections.
		AggregateLo: 1500, AggregateHi: 3000,
	})
	var random []admission
	sets := observedSets(w.Records)
	rng := rand.New(rand.NewSource(99))
	for range 200 {
		random = append(random, admission{sets[rng.Intn(len(sets))], int64(1 + rng.Intn(800))})
	}
	oneGroup := func(n int) overlap.Grouping {
		return overlap.Grouping{N: n, Groups: []overlap.Group{{Members: bitset.FullMask(n), Size: n}}}
	}
	for _, tc := range []struct {
		name     string
		grouping overlap.Grouping
		aggs     []int64
		priors   []logstore.Record
		steps    []admission
		// bothOutcomes requires the sequence to admit and to refuse.
		bothOutcomes bool
	}{
		{
			name: "workload", grouping: overlap.GroupsOf(w.Corpus), aggs: w.Corpus.Aggregates(),
			priors: w.Records, steps: random, bothOutcomes: true,
		},
		{
			name: "licenses join one by one", grouping: oneGroup(6), aggs: []int64{100, 100, 100, 100, 100, 100},
			steps: []admission{
				{bitset.MaskOf(0), 10}, {bitset.MaskOf(1, 2), 10}, {bitset.MaskOf(0, 3), 10},
				{bitset.MaskOf(4), 10}, {bitset.MaskOf(2, 5), 10},
			},
		},
		{
			name: "every set of one group", grouping: oneGroup(5), aggs: []int64{100, 200, 300, 400, 500},
			priors: []logstore.Record{
				{Set: bitset.MaskOf(0), Count: 40},
				{Set: bitset.MaskOf(0, 1), Count: 30},
				{Set: bitset.MaskOf(2, 3), Count: 250},
				{Set: bitset.MaskOf(1, 4), Count: 60},
			},
			steps: []admission{{bitset.MaskOf(2, 3), 0}, {bitset.MaskOf(2, 3), 1}},
		},
		{
			name: "sets cover their group", grouping: oneGroup(4), aggs: []int64{50, 60, 70, 80},
			steps: []admission{{bitset.MaskOf(0), 5}, {bitset.MaskOf(1), 5}, {bitset.MaskOf(2, 3), 5}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, aggs := tc.grouping.N, tc.aggs
			log := memLog(t, tc.priors...)
			ctx := context.Background()
			c, err := headroom.Build(ctx, tc.grouping, aggs, log)
			if err != nil {
				t.Fatal(err)
			}
			everySet := func(when string) {
				for s := bitset.Mask(1); s < 1<<n; s++ {
					room, err := c.Headroom(s)
					if drmerr.KindOf(err) == drmerr.KindCrossGroup {
						continue
					}
					if want := oracleRoom(t, n, log, aggs, s); err != nil || room != want {
						t.Fatalf("%s: Headroom(%v) = %d, %v; oracle %d", when, s, room, err, want)
					}
				}
			}
			everySet("before")
			admitted, rejected := 0, 0
			for step, a := range tc.steps {
				want := oracleRoom(t, n, log, aggs, a.set)
				count := a.count
				if count == 0 {
					count = want
				}
				room, ok, err := c.Admit(ctx, a.set, count)
				if err != nil {
					t.Fatalf("step %d Admit(%v, %d): %v", step, a.set, count, err)
				}
				if room != want || ok != (count <= want) {
					t.Fatalf("step %d: Admit(%v, %d) = %d, %v; oracle room %d", step, a.set, count, room, ok, want)
				}
				if ok {
					admitted++
					if err := log.Append(logstore.Record{Set: a.set, Count: count}); err != nil {
						t.Fatal(err)
					}
				} else {
					rejected++
				}
				if step%50 == 49 {
					if _, err := c.Verify(ctx, log); err != nil {
						t.Fatalf("step %d: Verify: %v", step, err)
					}
				}
			}
			if tc.bothOutcomes && (admitted == 0 || rejected == 0) {
				t.Fatalf("sequence exercised only one outcome: admitted=%d rejected=%d", admitted, rejected)
			}
			everySet("after")
			if _, err := c.Verify(ctx, log); err != nil {
				t.Fatalf("Verify after the sequence: %v", err)
			}
		})
	}
}

func TestTopUp(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t,
		logstore.Record{Set: bitset.MaskOf(0, 1), Count: 90},
		logstore.Record{Set: bitset.MaskOf(4), Count: 95},
	)
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TopUp(1, 50); err != nil {
		t.Fatal(err)
	}
	aggs[1] += 50
	if err := c.TopUp(5, 25); err != nil { // outside any observed span
		t.Fatal(err)
	}
	aggs[5] += 25
	for s := bitset.Mask(1); s < 1<<6; s++ {
		if _, err := c.Headroom(s); err != nil {
			// Cross-group sets are invalid by construction; skip them.
			continue
		}
		room, _ := c.Headroom(s)
		if want := oracleRoom(t, 6, log, aggs, s); room != want {
			t.Errorf("post-topup Headroom(%v) = %d, oracle %d", s, room, want)
		}
	}
	if err := c.TopUp(9, 5); err == nil {
		t.Fatal("TopUp outside corpus succeeded")
	}
	if err := c.TopUp(0, 0); err == nil {
		t.Fatal("non-positive TopUp succeeded")
	}
}

// TestCreditUndoesAdmit takes back an admission whose log append failed
// and checks the cache returns to what a build from the log derives,
// including a set node that must go again.
func TestCreditUndoesAdmit(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t, logstore.Record{Set: bitset.MaskOf(0), Count: 10})
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The admitted set is new to the cache; the undo must remove its
	// node too.
	set := bitset.MaskOf(1, 2)
	if _, ok, err := c.Admit(ctx, set, 30); err != nil || !ok {
		t.Fatalf("Admit: ok=%v err=%v", ok, err)
	}
	if err := c.Credit(ctx, set, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after the undo: %v", err)
	}
	room, err := c.Headroom(bitset.MaskOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleRoom(t, 6, log, aggs, bitset.MaskOf(1)); room != want {
		t.Fatalf("Headroom after the undo = %d, oracle %d", room, want)
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t, logstore.Record{Set: bitset.MaskOf(0, 1), Count: 10})
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, err := c.Verify(ctx, log); err != nil || res.Entries == 0 {
		t.Fatalf("clean Verify: res=%+v err=%v", res, err)
	}
	// A record appended behind the cache's back is exactly the corruption
	// Verify exists to catch.
	if err := log.Append(logstore.Record{Set: bitset.MaskOf(0), Count: 5}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Verify(ctx, log)
	if err == nil {
		t.Fatal("Verify missed a log record the cache never saw")
	}
	if !errors.Is(err, headroom.ErrDivergence) || !errors.Is(err, drmerr.ErrHeadroomDiverge) {
		t.Fatalf("divergence error %v does not match the sentinels", err)
	}
	if drmerr.KindOf(err) != drmerr.KindHeadroomDivergence {
		t.Fatalf("divergence kind = %v", drmerr.KindOf(err))
	}
}

func TestCrossGroupRecordFailsBuild(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t, logstore.Record{Set: bitset.MaskOf(1, 3), Count: 5})
	_, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err == nil {
		t.Fatal("cross-group record accepted")
	}
	if drmerr.KindOf(err) != drmerr.KindCrossGroup {
		t.Fatalf("kind = %v, want cross_group", drmerr.KindOf(err))
	}
}

func TestAdmitInputValidation(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	c, err := headroom.Build(context.Background(), grouping2(), aggs, memLog(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		set   bitset.Mask
		count int64
		kind  drmerr.Kind
	}{
		{0, 5, drmerr.KindInvalidInput},
		{bitset.MaskOf(0), 0, drmerr.KindInvalidInput},
		{bitset.MaskOf(0), -3, drmerr.KindInvalidInput},
		{bitset.MaskOf(7), 5, drmerr.KindCorpusMismatch},
		{bitset.MaskOf(1, 4), 5, drmerr.KindCrossGroup},
	}
	for _, tc := range cases {
		_, ok, err := c.Admit(ctx, tc.set, tc.count)
		if ok || err == nil {
			t.Fatalf("Admit(%v, %d) = ok=%v err=%v, want typed error", tc.set, tc.count, ok, err)
		}
		if drmerr.KindOf(err) != tc.kind {
			t.Errorf("Admit(%v, %d) kind = %v, want %v", tc.set, tc.count, drmerr.KindOf(err), tc.kind)
		}
	}
}

// TestGrowthMergesGroups adds a license that overlaps both groups of a
// built cache: one new sink edge and a coarser grouping, with no log
// replay and no rebuild. Every headroom then equals the tree walk over
// the grown corpus, sets spanning the old groups are admitted, Verify
// stays clean, and the rejections of the merged groups carry over.
func TestGrowthMergesGroups(t *testing.T) {
	saved := headroom.M
	headroom.Instrument(obs.NewRegistry())
	defer func() { headroom.M = saved }()
	ctx := context.Background()
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t,
		logstore.Record{Set: bitset.MaskOf(0, 1), Count: 40},
		logstore.Record{Set: bitset.MaskOf(3, 4), Count: 70},
	)
	c, err := headroom.Build(ctx, grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Admit(ctx, bitset.MaskOf(3), 500); err != nil || ok {
		t.Fatalf("over-budget Admit: ok=%v err=%v", ok, err)
	}
	builds := headroom.M.Rebuilds.Value()
	merged := overlap.Grouping{N: 7, Groups: []overlap.Group{{Members: bitset.FullMask(7), Size: 7}}}
	if err := c.Grow(merged, 80); err != nil {
		t.Fatal(err)
	}
	aggs = append(aggs, 80)
	if got := headroom.M.Rebuilds.Value(); got != builds {
		t.Fatalf("growth rebuilt the cache %d times", got-builds)
	}
	for s := bitset.Mask(1); s < 1<<7; s++ {
		room, err := c.Headroom(s)
		if want := oracleRoom(t, 7, log, aggs, s); err != nil || room != want {
			t.Fatalf("Headroom(%v) after growth = %d, %v; oracle %d", s, room, err, want)
		}
	}
	for _, set := range []bitset.Mask{bitset.MaskOf(1, 4), bitset.MaskOf(4, 6)} {
		want := oracleRoom(t, 7, log, aggs, set)
		if room, ok, err := c.Admit(ctx, set, 10); err != nil || !ok || room != want {
			t.Fatalf("Admit(%v) after growth = %d, %v, %v; oracle %d", set, room, ok, err, want)
		}
		if err := log.Append(logstore.Record{Set: set, Count: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after growth: %v", err)
	}
	if sums := c.Summaries(); len(sums) != 1 || sums[0].Rejections != 1 || sums[0].ObservedSets != 4 {
		t.Fatalf("summaries after growth: %+v", sums)
	}
	if err := c.Grow(grouping2(), 10); drmerr.KindOf(err) != drmerr.KindCorpusMismatch {
		t.Fatalf("Grow with a grouping that does not grow the corpus: %v", err)
	}
}
