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

// TestAdmitSequenceMatchesOracle drives a random admission sequence and
// checks every decision and every reported room against a tree rebuilt
// from scratch before each step.
func TestAdmitSequenceMatchesOracle(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		N: 10, Groups: 3, Dims: 2, RecordsPerLicense: 10, Seed: 3,
		// Budgets tight enough that the sequence drains some groups and
		// exercises rejections.
		AggregateLo: 1500, AggregateHi: 3000,
	})
	grouping := overlap.GroupsOf(w.Corpus)
	aggs := w.Corpus.Aggregates()
	log := w.Store()
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	sets := observedSets(w.Records)
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	admitted, rejected := 0, 0
	for step := 0; step < 200; step++ {
		set := sets[rng.Intn(len(sets))]
		count := int64(1 + rng.Intn(800))
		want := oracleRoom(t, 10, log, aggs, set)
		room, ok, err := c.Admit(ctx, set, count)
		if err != nil {
			t.Fatalf("step %d Admit(%v, %d): %v", step, set, count, err)
		}
		if room != want {
			t.Fatalf("step %d: Admit(%v, %d) room = %d, oracle %d", step, set, count, room, want)
		}
		if wantOK := count <= want; ok != wantOK {
			t.Fatalf("step %d: Admit(%v, %d) ok = %v, oracle room %d", step, set, count, ok, want)
		}
		if ok {
			admitted++
			if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
				t.Fatal(err)
			}
			c.Confirm()
		} else {
			rejected++
		}
		if step%50 == 49 {
			res, err := c.Verify(ctx, log)
			if err != nil {
				t.Fatalf("step %d: Verify: %v", step, err)
			}
			if res.Skipped {
				t.Fatalf("step %d: Verify skipped with no pending admissions", step)
			}
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("sequence exercised only one outcome: admitted=%d rejected=%d", admitted, rejected)
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("pending = %d after confirmed sequence", p)
	}
}

// TestSpanGrowth admits sets that keep introducing unobserved licenses
// and checks every admission stays exact as they join the flow network.
func TestSpanGrowth(t *testing.T) {
	grouping := overlap.Grouping{N: 6, Groups: []overlap.Group{
		{Members: bitset.FullMask(6), Size: 6},
	}}
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t)
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	steps := []bitset.Mask{
		bitset.MaskOf(0), bitset.MaskOf(1, 2), bitset.MaskOf(0, 3),
		bitset.MaskOf(4), bitset.MaskOf(2, 5),
	}
	for i, set := range steps {
		want := oracleRoom(t, 6, log, aggs, set)
		room, ok, err := c.Admit(ctx, set, 10)
		if err != nil || !ok {
			t.Fatalf("step %d Admit(%v): ok=%v err=%v", i, set, ok, err)
		}
		if room != want {
			t.Fatalf("step %d: room = %d, oracle %d", i, room, want)
		}
		if err := log.Append(logstore.Record{Set: set, Count: 10}); err != nil {
			t.Fatal(err)
		}
		c.Confirm()
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after growth: %v", err)
	}
}

// TestSparseMode checks every set's headroom in a group whose licenses
// are all observed, then exhausts one set's room.
func TestSparseMode(t *testing.T) {
	grouping := overlap.Grouping{N: 5, Groups: []overlap.Group{
		{Members: bitset.FullMask(5), Size: 5},
	}}
	aggs := []int64{100, 200, 300, 400, 500}
	log := memLog(t,
		logstore.Record{Set: bitset.MaskOf(0), Count: 40},
		logstore.Record{Set: bitset.MaskOf(0, 1), Count: 30},
		logstore.Record{Set: bitset.MaskOf(2, 3), Count: 250},
		logstore.Record{Set: bitset.MaskOf(1, 4), Count: 60},
	)
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	for s := bitset.Mask(1); s < 1<<5; s++ {
		room, err := c.Headroom(s)
		if err != nil {
			t.Fatalf("Headroom(%v): %v", s, err)
		}
		if want := oracleRoom(t, 5, log, aggs, s); room != want {
			t.Errorf("sparse Headroom(%v) = %d, oracle %d", s, room, want)
		}
	}
	// Admissions still work and stay consistent with the log.
	ctx := context.Background()
	set := bitset.MaskOf(2, 3)
	want := oracleRoom(t, 5, log, aggs, set)
	room, ok, err := c.Admit(ctx, set, want)
	if err != nil || !ok || room != want {
		t.Fatalf("sparse Admit: room=%d ok=%v err=%v, want room=%d ok", room, ok, err, want)
	}
	if err := log.Append(logstore.Record{Set: set, Count: want}); err != nil {
		t.Fatal(err)
	}
	c.Confirm()
	if _, ok, _ := c.Admit(ctx, set, 1); ok {
		t.Fatal("admission above exhausted budget accepted in sparse mode")
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify in sparse mode: %v", err)
	}
}

// TestSpanOverflowDuringAdmit admits sets until they cover their group
// and checks every set's headroom stays exact.
func TestSpanOverflowDuringAdmit(t *testing.T) {
	grouping := overlap.Grouping{N: 4, Groups: []overlap.Group{
		{Members: bitset.FullMask(4), Size: 4},
	}}
	aggs := []int64{50, 60, 70, 80}
	log := memLog(t)
	c, err := headroom.Build(context.Background(), grouping, aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, set := range []bitset.Mask{bitset.MaskOf(0), bitset.MaskOf(1), bitset.MaskOf(2, 3)} {
		want := oracleRoom(t, 4, log, aggs, set)
		room, ok, err := c.Admit(ctx, set, 5)
		if err != nil || !ok || room != want {
			t.Fatalf("step %d Admit(%v): room=%d ok=%v err=%v, oracle %d", i, set, room, ok, err, want)
		}
		if err := log.Append(logstore.Record{Set: set, Count: 5}); err != nil {
			t.Fatal(err)
		}
		c.Confirm()
	}
	for s := bitset.Mask(1); s < 1<<4; s++ {
		room, err := c.Headroom(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleRoom(t, 4, log, aggs, s); room != want {
			t.Errorf("post-overflow Headroom(%v) = %d, oracle %d", s, room, want)
		}
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after overflow: %v", err)
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

// TestRelease rolls back an admitted-but-unlogged reservation and checks
// the cache returns to the exact pre-admission state, including a set
// node that must go again.
func TestRelease(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t, logstore.Record{Set: bitset.MaskOf(0), Count: 10})
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The admitted set is new to the cache; the failed append must remove
	// its node too.
	set := bitset.MaskOf(1, 2)
	if _, ok, err := c.Admit(ctx, set, 30); err != nil || !ok {
		t.Fatalf("Admit: ok=%v err=%v", ok, err)
	}
	if p := c.Pending(); p != 1 {
		t.Fatalf("pending = %d after Admit, want 1", p)
	}
	if err := c.Release(set, 30); err != nil {
		t.Fatal(err)
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("pending = %d after Release, want 0", p)
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("Verify after Release: %v", err)
	}
	room, err := c.Headroom(bitset.MaskOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleRoom(t, 6, log, aggs, bitset.MaskOf(1)); room != want {
		t.Fatalf("post-release Headroom = %d, oracle %d", room, want)
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
	if res, err := c.Verify(ctx, log); err != nil || res.Skipped || res.Entries == 0 {
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

func TestVerifySkipsWithPendingAdmissions(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t)
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, ok, err := c.Admit(ctx, bitset.MaskOf(3), 5); err != nil || !ok {
		t.Fatalf("Admit: ok=%v err=%v", ok, err)
	}
	res, err := c.Verify(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped || res.Pending != 1 {
		t.Fatalf("Verify with in-flight admission: res=%+v, want skipped with pending=1", res)
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
	if p := c.Pending(); p != 0 {
		t.Fatalf("rejected inputs left pending = %d", p)
	}
}

// TestRebuildAfterRegrouping re-routes retained counts under a coarser
// grouping (two groups merged into one) without replaying any log.
func TestRebuildAfterRegrouping(t *testing.T) {
	aggs := []int64{100, 100, 100, 100, 100, 100}
	log := memLog(t,
		logstore.Record{Set: bitset.MaskOf(0, 1), Count: 40},
		logstore.Record{Set: bitset.MaskOf(3, 4), Count: 70},
	)
	c, err := headroom.Build(context.Background(), grouping2(), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	merged := overlap.Grouping{N: 6, Groups: []overlap.Group{
		{Members: bitset.FullMask(6), Size: 6},
	}}
	if err := c.Rebuild(context.Background(), merged, aggs); err != nil {
		t.Fatal(err)
	}
	// Under one group, formerly cross-group sets become valid.
	for _, set := range []bitset.Mask{bitset.MaskOf(1, 4), bitset.MaskOf(0), bitset.MaskOf(3)} {
		room, err := c.Headroom(set)
		if err != nil {
			t.Fatalf("Headroom(%v) after rebuild: %v", set, err)
		}
		if want := oracleRoom(t, 6, log, aggs, set); room != want {
			t.Errorf("rebuilt Headroom(%v) = %d, oracle %d", set, room, want)
		}
	}
	if _, err := c.Verify(context.Background(), log); err != nil {
		t.Fatalf("Verify after rebuild: %v", err)
	}
}
