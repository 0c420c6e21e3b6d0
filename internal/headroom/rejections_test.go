package headroom_test

import (
	"context"
	"testing"

	"repro/internal/bitset"
	"repro/internal/headroom"
)

// TestRejectionCounters pins the per-group rejection accounting behind
// the heavy-hitter ranking and /v1/headroom summaries: every refused
// Admit increments its group's counter, accepted ones don't, and the
// other group stays at zero.
func TestRejectionCounters(t *testing.T) {
	ctx := context.Background()
	aggs := []int64{10, 20, 30, 40, 50, 60}
	c, err := headroom.Build(ctx, grouping2(), aggs, memLog(t))
	if err != nil {
		t.Fatal(err)
	}
	set := bitset.MaskOf(0)
	// Two accepts, then exhaust, then two refused admissions.
	for i := 0; i < 2; i++ {
		if _, ok, err := c.Admit(ctx, set, 4); err != nil || !ok {
			t.Fatalf("admit %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := c.Admit(ctx, set, 100); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("over-budget admit %d accepted", i)
		}
	}
	sums := c.Summaries()
	if len(sums) != 2 {
		t.Fatalf("groups = %d, want 2", len(sums))
	}
	if got := sums[0].Rejections; got != 2 {
		t.Errorf("group 0 rejections = %d, want 2", got)
	}
	if got := sums[1].Rejections; got != 0 {
		t.Errorf("group 1 rejections = %d, want 0", got)
	}
}
