package headroom_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/headroom"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/vtree"
	"repro/internal/workload"
)

// groupingOf builds the grouping whose groups are the given masks.
func groupingOf(n int, masks []bitset.Mask) overlap.Grouping {
	gr := overlap.Grouping{N: n}
	for _, m := range masks {
		gr.Groups = append(gr.Groups, overlap.Group{Members: m, Size: m.Len()})
	}
	return gr
}

// randomSubset draws a non-empty subset of m.
func randomSubset(rng *rand.Rand, m bitset.Mask) bitset.Mask {
	for {
		var s bitset.Mask
		m.ForEach(func(e int) bool {
			if rng.Intn(2) == 0 {
				s = s.With(e)
			}
			return true
		})
		if !s.Empty() {
			return s
		}
	}
}

// TestHeadroomFlowMatchesTreeWalk drives random groupings (N ≤ 12) whose
// priors may overrun their budgets, so deficits go negative, through
// random admissions (accepted, refused and released), revokes, top-ups
// and rebuilds into merged groups. Every admission's room and every
// sampled headroom must equal the full-universe tree walk, and Verify
// must stay clean after every step.
func TestHeadroomFlowMatchesTreeWalk(t *testing.T) {
	ctx := context.Background()
	var accepted, refused, negative, credits, topups, rebuilds int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11)
		masks := make([]bitset.Mask, 1+rng.Intn(min(n, 4)))
		for e := 0; e < n; e++ {
			k := e
			if e >= len(masks) {
				k = rng.Intn(len(masks))
			}
			masks[k] = masks[k].With(e)
		}
		aggs := make([]int64, n)
		for i := range aggs {
			aggs[i] = int64(rng.Intn(60))
		}
		log := logstore.NewMem(0)
		net := map[bitset.Mask]int64{}
		for i := rng.Intn(3 * n); i > 0; i-- {
			set := randomSubset(rng, masks[rng.Intn(len(masks))])
			count := int64(1 + rng.Intn(30))
			if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
				t.Fatal(err)
			}
			net[set] += count
		}
		c, err := headroom.Build(ctx, groupingOf(n, masks), aggs, log)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle := func(set bitset.Mask) int64 {
			tree, err := vtree.Build(n, log)
			if err != nil {
				t.Fatal(err)
			}
			room, err := tree.Headroom(set, aggs)
			if err != nil {
				t.Fatal(err)
			}
			return room
		}
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(6); {
			case op <= 1: // admit, released on op 1 as if the append failed
				set := randomSubset(rng, masks[rng.Intn(len(masks))])
				count := int64(1 + rng.Intn(40))
				want := oracle(set)
				room, ok, err := c.Admit(ctx, set, count)
				if err != nil || room != want || ok != (count <= want) {
					t.Fatalf("seed %d step %d: Admit(%v, %d) = %d, %v, %v; tree walk says %d",
						seed, step, set, count, room, ok, err, want)
				}
				switch {
				case !ok:
					refused++
				case op == 1:
					if err := c.Release(set, count); err != nil {
						t.Fatal(err)
					}
				default:
					accepted++
					if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
						t.Fatal(err)
					}
					net[set] += count
					c.Confirm()
				}
			case op == 2: // revoke part of a set's net count
				var held []bitset.Mask
				for set, have := range net {
					if have > 0 {
						held = append(held, set)
					}
				}
				if len(held) == 0 {
					break
				}
				slices.Sort(held)
				set := held[rng.Intn(len(held))]
				count := 1 + rng.Int63n(net[set])
				if err := log.Append(logstore.Record{Set: set, Count: count, Kind: logstore.KindRevoke}); err != nil {
					t.Fatal(err)
				}
				net[set] -= count
				c.Hold()
				if err := c.Credit(ctx, set, count); err != nil {
					t.Fatalf("seed %d step %d: Credit(%v, %d): %v", seed, step, set, count, err)
				}
				c.Confirm()
				credits++
			case op == 3:
				i, extra := rng.Intn(n), int64(1+rng.Intn(40))
				aggs[i] += extra
				if err := c.TopUp(i, extra); err != nil {
					t.Fatal(err)
				}
				topups++
			case op == 4 && len(masks) > 1:
				j := 1 + rng.Intn(len(masks)-1)
				masks[0] |= masks[j]
				masks = append(masks[:j], masks[j+1:]...)
				if err := c.Rebuild(ctx, groupingOf(n, masks), aggs); err != nil {
					t.Fatal(err)
				}
				rebuilds++
			}
			for range 2 {
				set := randomSubset(rng, masks[rng.Intn(len(masks))])
				room, err := c.Headroom(set)
				if want := oracle(set); err != nil || room != want {
					t.Fatalf("seed %d step %d: Headroom(%v) = %d, %v; tree walk says %d", seed, step, set, room, err, want)
				}
				if room < 0 {
					negative++
				}
			}
			if res, err := c.Verify(ctx, log); err != nil || res.Skipped {
				t.Fatalf("seed %d step %d: Verify = %+v, %v", seed, step, res, err)
			}
		}
	}
	t.Logf("accepted %d, refused %d, negative rooms %d, credits %d, top-ups %d, rebuilds %d",
		accepted, refused, negative, credits, topups, rebuilds)
	if accepted == 0 || refused == 0 || negative == 0 || credits == 0 || topups == 0 || rebuilds == 0 {
		t.Fatal("the random steps missed an operation or never drove a deficit negative")
	}
}

// TestHeadroomConcurrentGroups runs admissions in several groups at once,
// some goroutines sharing a group, next to readers and a top-up. The
// flow, its search buffers and the deficits are reached from every
// goroutine; at the end nothing is pending, Verify is clean and the log
// passes a full audit.
func TestHeadroomConcurrentGroups(t *testing.T) {
	ctx := context.Background()
	const n = 12
	masks := []bitset.Mask{bitset.MaskOf(0, 1, 2, 3), bitset.MaskOf(4, 5, 6, 7), bitset.MaskOf(8, 9, 10, 11)}
	aggs := make([]int64, n)
	for i := range aggs {
		aggs[i] = 400
	}
	log := logstore.NewMem(0)
	c, err := headroom.Build(ctx, groupingOf(n, masks), aggs, log)
	if err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				set := randomSubset(rng, masks[w%len(masks)])
				count := int64(1 + rng.Intn(20))
				_, ok, err := c.Admit(ctx, set, count)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					continue
				}
				if err := log.Append(logstore.Record{Set: set, Count: count}); err != nil {
					t.Error(err)
				}
				c.Confirm()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := c.Headroom(randomSubset(rng, masks[rng.Intn(len(masks))])); err != nil {
					t.Error(err)
				}
				c.Summaries()
			}
		}(r)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 50; i++ {
			if err := c.TopUp(i%n, 10); err != nil {
				t.Error(err)
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	for i := 0; i < 50; i++ {
		aggs[i%n] += 10
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("pending = %d after every admission confirmed", p)
	}
	if res, err := c.Verify(ctx, log); err != nil || res.Skipped {
		t.Fatalf("Verify = %+v, %v", res, err)
	}
	tree, err := vtree.Build(n, log)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tree.ValidateAll(aggs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("concurrent admissions overran budgets: %v", res.Violations)
	}
}

// BenchmarkHeadroomLargeGroups builds and admits against two groups of
// 22 licenses with 630 records per license and budgets topped up, large
// enough that a cost exponential in group size would show.
func BenchmarkHeadroomLargeGroups(b *testing.B) {
	w := workload.MustGenerate(workload.Config{N: 44, Groups: 2, Dims: 4, RecordsPerLicense: 630, Seed: 1})
	grouping := overlap.GroupsOf(w.Corpus)
	aggs := w.Corpus.Aggregates()
	var total int64
	for _, r := range w.Records {
		total += r.Count
	}
	for i := range aggs {
		aggs[i] += total
	}
	log := w.Store()
	ctx := context.Background()
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := headroom.Build(ctx, grouping, aggs, log); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("admit", func(b *testing.B) {
		c, err := headroom.Build(ctx, grouping, aggs, log)
		if err != nil {
			b.Fatal(err)
		}
		sets := observedSets(w.Records)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := c.Admit(ctx, sets[i%len(sets)], 1); err != nil || !ok {
				b.Fatalf("Admit: ok=%v err=%v", ok, err)
			}
			c.Confirm()
		}
	})
}
