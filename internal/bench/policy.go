package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/headroom"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/workload"
)

// PolicyRow quantifies the Example 1 phenomenon at scale: how many
// permission counts each online issuance policy manages to grant out of
// the same request stream. The equation-based policy is loss-free with
// respect to the validation equations; single-pick policies strand budget
// by charging the wrong license.
type PolicyRow struct {
	N        int
	Requests int
	// Granted maps policy name to total permission counts granted.
	Granted map[string]int64
	// Accepted maps policy name to accepted request counts.
	Accepted map[string]int
}

// groupedAllocator adapts the production admission cache (headroom.Cache)
// into an online policy: accept an issuance iff it fits the grouped
// equation headroom. This is the paper's geometric contribution applied
// online — the global headroom check enumerates 2^(N−k) equations per
// request and is infeasible beyond N ≈ 20, while the grouped check only
// touches the belongs-to set's group.
type groupedAllocator struct {
	cache *headroom.Cache
}

// Allocate implements baseline.Allocator.
func (g *groupedAllocator) Allocate(set bitset.Mask, count int64) error {
	room, ok, err := g.cache.Admit(context.Background(), set, count)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: count %d exceeds grouped headroom %d", baseline.ErrRejected, count, room)
	}
	return nil
}

// Name implements baseline.Allocator.
func (g *groupedAllocator) Name() string { return "equation" }

// Policies sweeps N, replaying each workload's request stream through all
// four allocators. Budgets are tightened (relative to §5 defaults) so
// exhaustion pressure actually differentiates the policies. The equation
// policy uses group-local headroom (see groupedAllocator), so the sweep
// stays tractable at every N.
func Policies(ns []int, seed int64) ([]PolicyRow, error) {
	rows := make([]PolicyRow, 0, len(ns))
	for _, n := range ns {
		cfg := workload.Default(n)
		cfg.Seed = seed
		// Budgets low enough that the stream overruns them, and counts
		// coarse enough that charging the wrong license strands a
		// meaningful fraction of a budget (Example 1's granularity: one
		// request was 80% of a license).
		cfg.AggregateLo, cfg.AggregateHi = 500, 2000
		cfg.CountLo, cfg.CountHi = 100, 400
		cfg.RecordsPerLicense = 200
		w, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		agg := w.Corpus.Aggregates()
		cache, err := headroom.Build(context.Background(), overlap.GroupsOf(w.Corpus), agg, logstore.NewMem(0))
		if err != nil {
			return nil, err
		}
		policies := []baseline.Allocator{
			&groupedAllocator{cache: cache},
			baseline.NewRandomPick(agg, seed),
			baseline.NewFirstFit(agg),
			baseline.NewBestFit(agg),
		}
		row := PolicyRow{
			N:        n,
			Requests: len(w.Records),
			Granted:  make(map[string]int64, len(policies)),
			Accepted: make(map[string]int, len(policies)),
		}
		for _, p := range policies {
			accepted, granted := baseline.Replay(p, w.Requests())
			row.Accepted[p.Name()] = accepted
			row.Granted[p.Name()] = granted
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// policyOrder fixes the column order for rendering.
var policyOrder = []string{"equation", "best-fit", "first-fit", "random-pick"}

// WritePolicies renders policy rows with one granted-counts column per
// policy plus each pick policy's loss relative to the equation policy.
func WritePolicies(w io.Writer, rows []PolicyRow) error {
	tw := newTable(w)
	fmt.Fprint(tw, "N\trequests\t")
	for _, p := range policyOrder {
		fmt.Fprintf(tw, "%s\t", p)
	}
	fmt.Fprintln(tw, "worst loss\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t", r.N, r.Requests)
		for _, p := range policyOrder {
			fmt.Fprintf(tw, "%d\t", r.Granted[p])
		}
		base := r.Granted["equation"]
		var worst int64
		for _, p := range policyOrder[1:] {
			if loss := base - r.Granted[p]; loss > worst {
				worst = loss
			}
		}
		pct := 0.0
		if base > 0 {
			pct = 100 * float64(worst) / float64(base)
		}
		fmt.Fprintf(tw, "%.1f%%\t\n", pct)
	}
	return tw.Flush()
}
