package headroom

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/logstore"
	"repro/internal/overlap"
)

// TestVerifyCatchesCorruptFlow corrupts the kept flow behind the cache's
// back while every count still matches the log: first one license's load
// (an infeasible flow), then one set's flow together with what it sends
// and its license's load (a feasible flow that is no longer maximum).
// Verify must report each as a divergence.
func TestVerifyCatchesCorruptFlow(t *testing.T) {
	ctx := context.Background()
	grouping := overlap.Grouping{N: 4, Groups: []overlap.Group{
		{Members: bitset.MaskOf(0, 1), Size: 2},
		{Members: bitset.MaskOf(2, 3), Size: 2},
	}}
	set := bitset.MaskOf(0, 1)
	log := logstore.NewMem(0)
	for _, r := range []logstore.Record{{Set: set, Count: 30}, {Set: bitset.MaskOf(1), Count: 20}, {Set: bitset.MaskOf(2), Count: 5}} {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Build(ctx, grouping, []int64{40, 40, 40, 40}, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(ctx, log); err != nil {
		t.Fatalf("clean Verify: %v", err)
	}
	n := c.sets[set]
	e := 0
	if n.flow[0] == 0 {
		e = 1
	}
	for _, tc := range []struct {
		name    string
		corrupt func(delta int64)
	}{
		{"license load", func(d int64) { c.load[e] += d }},
		{"set flow", func(d int64) {
			*n.at(e) -= d
			n.out -= d
			c.load[e] -= d
		}},
	} {
		tc.corrupt(1)
		_, err := c.Verify(ctx, log)
		if !errors.Is(err, ErrDivergence) || drmerr.KindOf(err) != drmerr.KindHeadroomDivergence {
			t.Errorf("%s corrupted: Verify = %v, want a headroom divergence", tc.name, err)
		}
		tc.corrupt(-1)
		if _, err := c.Verify(ctx, log); err != nil {
			t.Fatalf("%s restored: Verify = %v", tc.name, err)
		}
	}
}
