// Package core implements the paper's contribution (§3–§4): removal of
// redundant validation equations by dividing the validation tree along the
// disconnected groups of the license overlap graph.
//
// The pipeline is:
//
//  1. group the corpus with internal/overlap (Algorithm 3);
//  2. divide the validation tree into one tree per group (Algorithm 4) —
//     children of the original root are *relinked*, not copied, so no new
//     nodes are allocated beyond the g root sentinels (the fig 10 storage
//     claim);
//  3. rewrite node indexes to dense group-local indexes and derive the
//     per-group aggregate arrays A_k (Algorithm 5);
//  4. validate each group tree independently with Algorithm 2 over a
//     flattened snapshot (vtree.FlatTree.ValidateAllSharded) — optionally
//     in parallel across groups and across mask shards within a group —
//     and map the violated sets back to global corpus indexes.
//
// Soundness rests on Theorems 1–2: cross-group sets always have zero
// counts, so every equation spanning ≥2 groups is implied by the per-group
// equations. Equation count drops from 2^N−1 to Σ_k (2^{N_k}−1); the
// theoretical gain G of eq. 3 is computed by Gain.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/drmerr"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vtree"
)

// GroupTree is one divided validation tree: the paper's k-th tree with
// root_k, dense local indexes [0, N_k), and aggregate array A_k.
type GroupTree struct {
	// Group is the overlap component this tree covers (global indexes).
	Group overlap.Group
	// Tree is the per-group validation tree over local indexes.
	Tree *vtree.Tree
	// Aggregates is A_k: Aggregates[p] is the budget of the license with
	// local index p.
	Aggregates []int64
	// localToGlobal maps local index p to the global corpus index
	// (the inverse of the paper's position_k array).
	localToGlobal []int
	// flat caches the flattened snapshot of Tree, built by the first
	// validation; a validated Tree must not be mutated.
	flat *vtree.FlatTree
}

// Flat returns the flattened structure-of-arrays snapshot of the group
// tree, building it on first use. The first call is not safe for
// concurrent use — Validate/ValidateParallel flatten every group
// up front, before fanning out, so workers only ever read the cache.
func (gt *GroupTree) Flat() *vtree.FlatTree {
	if gt.flat == nil {
		gt.flat = gt.Tree.Flatten()
	}
	return gt.flat
}

// ToGlobal translates a local-index mask from this group's tree back into
// global corpus indexes.
func (gt *GroupTree) ToGlobal(local bitset.Mask) bitset.Mask {
	var out bitset.Mask
	local.ForEach(func(p int) bool {
		out = out.With(gt.localToGlobal[p])
		return true
	})
	return out
}

// Divide splits t into one validation tree per group — Algorithms 4 and 5.
//
// Children of t's root are relinked into the new trees and their subtree
// indexes rewritten in place, so t is CONSUMED: it must not be used
// afterwards (Clone it first if you need to keep it). No nodes are copied;
// only the g new root sentinels are allocated.
//
// a is the global aggregate array (a[j] = budget of license j); len(a) must
// equal t.N(), and the grouping must partition [0, t.N()).
//
// A log record whose set spans two groups contradicts Corollary 1.1 — it
// cannot arise from instance-valid issuance — and makes the division
// unsound, so Divide detects any such branch and returns an error naming
// the offending license.
func Divide(t *vtree.Tree, gr overlap.Grouping, a []int64) ([]*GroupTree, error) {
	n := t.N()
	if gr.N != n {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "core.divide",
			"core: grouping over %d licenses, tree over %d", gr.N, n)
	}
	if len(a) != n {
		return nil, drmerr.New(drmerr.KindCorpusMismatch, "core.divide",
			"core: aggregate array has %d entries, want %d", len(a), n)
	}
	if err := gr.Validate(); err != nil {
		return nil, err
	}

	// Algorithm 5 prologue: position_k and A_k for every group, computed
	// once over the global index space. position[j] is the local index of
	// license j within its own group.
	position := make([]int, n)
	out := make([]*GroupTree, len(gr.Groups))
	for k, g := range gr.Groups {
		gt := &GroupTree{
			Group:         g,
			Aggregates:    make([]int64, 0, g.Size),
			localToGlobal: make([]int, 0, g.Size),
		}
		p := 0
		g.Members.ForEach(func(j int) bool {
			position[j] = p
			gt.Aggregates = append(gt.Aggregates, a[j])
			gt.localToGlobal = append(gt.localToGlobal, j)
			p++
			return true
		})
		out[k] = gt
	}

	// Algorithm 4: route each child of the original root to its group's
	// new root. Children arrive index-ordered and stay index-ordered within
	// each group because group-local order is inherited from global order.
	roots := make([]*vtree.Node, len(gr.Groups))
	for k := range roots {
		roots[k] = &vtree.Node{L: -1}
	}
	for _, child := range t.Root().Children {
		k := gr.GroupOf(child.L)
		roots[k].Children = append(roots[k].Children, child)
	}

	// Algorithm 5 main step: rewrite subtree indexes to local ones,
	// verifying that every node in group k's tree belongs to group k.
	for k, gt := range out {
		if err := relabel(roots[k], gr, k, position); err != nil {
			return nil, err
		}
		gt.Tree = vtree.NewFromRoot(roots[k], gt.Group.Size)
	}
	return out, nil
}

// relabel rewrites L fields under root to group-local indexes, failing on
// any node from a foreign group.
func relabel(root *vtree.Node, gr overlap.Grouping, k int, position []int) error {
	for _, c := range root.Children {
		if !gr.Groups[k].Members.Has(c.L) {
			return drmerr.New(drmerr.KindCrossGroup, "core.divide",
				"core: log record crosses groups: license %d in group-%d tree (impossible under Corollary 1.1 — corrupt or non-instance-validated log)", c.L+1, k+1)
		}
		c.L = position[c.L]
		if err := relabel(c, gr, k, position); err != nil {
			return err
		}
	}
	return nil
}

// Report is the outcome of a grouped validation run.
type Report struct {
	// Equations is the total number of equations evaluated. For a
	// complete run this is Σ_k (2^{N_k}−1); a deadline-bounded run cut
	// short counts only the masks actually scanned.
	Equations int64
	// Violations lists every violated equation with GLOBAL license masks,
	// ordered by ascending set.
	Violations []vtree.Violation
	// PerGroup holds each group's raw result (local masks), index-aligned
	// with the GroupTree slice.
	PerGroup []vtree.Result
	// Completeness reports per-group coverage, index-aligned with the
	// GroupTree slice. Group independence (Theorem 2) is what makes a
	// partial audit well-defined: every fully scanned group's verdict is
	// final regardless of the groups the deadline cut off.
	Completeness []GroupCompleteness
}

// GroupCompleteness is one group's equation-space coverage in a run.
type GroupCompleteness struct {
	// Group indexes the GroupTree slice.
	Group int `json:"group"`
	// MasksScanned counts equations evaluated for this group; MasksTotal
	// is the full 2^{N_k}−1 space.
	MasksScanned int64 `json:"masks_scanned"`
	MasksTotal   int64 `json:"masks_total"`
	// Complete reports MasksScanned == MasksTotal.
	Complete bool `json:"complete"`
}

// OK reports whether no equation was violated.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Complete reports whether every group's equation space was fully
// checked. Runs that returned a nil error are always complete; runs that
// returned ErrAuditIncomplete are not.
func (r Report) Complete() bool {
	for _, c := range r.Completeness {
		if !c.Complete {
			return false
		}
	}
	return true
}

// GroupsComplete counts the groups whose equation space was fully
// checked.
func (r Report) GroupsComplete() int {
	n := 0
	for _, c := range r.Completeness {
		if c.Complete {
			n++
		}
	}
	return n
}

// Validate runs Algorithm 2 on every group tree serially and merges the
// results, mapping violated sets back to global indexes. The evaluation
// itself goes through the flat-tree backend; reports are identical to the
// pointer-tree walk (property-tested).
func Validate(trees []*GroupTree) (Report, error) {
	return ValidateParallel(trees, 1)
}

// ValidateParallel runs the grouped validation on up to workers
// goroutines with a two-level parallelism budget:
//
//   - across groups, min(workers, len(trees)) worker goroutines drain a
//     group channel (groups are independent by Theorem 2);
//   - within a group, the worker budget is split proportionally to each
//     group's equation count (2^{N_k}−1) and the group's flat tree is
//     evaluated with FlatTree.ValidateAllSharded over that many shards.
//
// The proportional split is what keeps the grouping win from collapsing:
// with one dominant group the old per-group parallelism degenerated to a
// single goroutine; now that group receives (nearly) the whole budget and
// saturates all cores. Results are identical to Validate's.
func ValidateParallel(trees []*GroupTree, workers int) (Report, error) {
	return ValidateParallelContext(context.Background(), trees, workers)
}

// ValidateParallelContext is ValidateParallel under a context. When ctx
// is cancelled or its deadline expires mid-run, the verified-so-far
// report is returned together with an error matching
// drmerr.ErrAuditIncomplete (wrapping ctx.Err()): every violation in it
// is real, Report.Completeness says which groups were fully checked, and
// groups the deadline cut off contribute only the masks they scanned.
// With an already-expired context the report covers zero groups.
func ValidateParallelContext(ctx context.Context, trees []*GroupTree, workers int) (Report, error) {
	if workers < 1 {
		return Report{}, drmerr.New(drmerr.KindInvalidInput, "core.validate",
			"core: workers = %d, want >= 1", workers)
	}
	start := time.Now()
	results := make([]vtree.Result, len(trees))
	// Flatten serially, once per audit, so the concurrent phase only
	// reads; poll ctx between groups so an expired deadline skips both
	// the flatten and the walk.
	for _, gt := range trees {
		if ctx.Err() != nil {
			return merge(trees, results), drmerr.Incomplete("core.validate", ctx.Err())
		}
		gt.Flat()
	}
	budgets := shardBudgets(trees, workers)
	errs := make([]error, len(trees))
	validateGroup := func(k int) {
		if err := ctx.Err(); err != nil {
			errs[k] = drmerr.Wrap(drmerr.KindCancelled, "core.validate", err)
			return
		}
		gt := trees[k]
		gctx, sp := trace.Start(ctx, "core.group")
		results[k], errs[k] = gt.Flat().ValidateAllShardedContext(gctx, gt.Aggregates, budgets[k])
		if sp != nil {
			sp.SetInt("group", int64(k+1))
			sp.SetInt("licenses", int64(len(gt.Aggregates)))
			sp.SetInt("equations", results[k].Equations)
			sp.Fail(errs[k])
			sp.End()
		}
	}

	groupWorkers := workers
	if groupWorkers > len(trees) {
		groupWorkers = len(trees)
	}
	if groupWorkers <= 1 {
		for k := range trees {
			validateGroup(k)
		}
	} else {
		groups := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < groupWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range groups {
					validateGroup(k)
				}
			}()
		}
		for k := range trees {
			groups <- k
		}
		close(groups)
		wg.Wait()
	}
	cut := false
	for k, err := range errs {
		if err == nil {
			continue
		}
		if drmerr.IsCancellation(err) {
			cut = true
			continue
		}
		return Report{}, fmt.Errorf("core: group %d: %w", k+1, err)
	}
	M.GroupedRuns.Inc()
	M.GroupedSeconds.ObserveSince(start)
	rep := merge(trees, results)
	if cut {
		return rep, drmerr.Incomplete("core.validate", ctx.Err())
	}
	return rep, nil
}

// shardBudgets splits the worker budget across groups proportionally to
// their equation counts, with at least one shard each. Group k's share of
// the 2^{N_k}−1 equations is computed in floating point so a 60-license
// group does not overflow the weights.
func shardBudgets(trees []*GroupTree, workers int) []int {
	budgets := make([]int, len(trees))
	for k := range budgets {
		budgets[k] = 1
	}
	if workers <= 1 || len(trees) == 0 {
		return budgets
	}
	weights := make([]float64, len(trees))
	var total float64
	for k, gt := range trees {
		weights[k] = math.Pow(2, float64(gt.Tree.N())) - 1
		total += weights[k]
	}
	if total <= 0 {
		return budgets
	}
	for k := range budgets {
		b := int(math.Round(float64(workers) * weights[k] / total))
		if b < 1 {
			b = 1
		}
		if b > workers {
			b = workers
		}
		budgets[k] = b
	}
	return budgets
}

// merge lifts per-group results to a global report. Completeness falls
// out of the counts alone: a group is complete iff its result evaluated
// all 2^{N_k}−1 equations.
func merge(trees []*GroupTree, results []vtree.Result) Report {
	rep := Report{PerGroup: results, Completeness: make([]GroupCompleteness, len(results))}
	for k, res := range results {
		total := int64(1)<<uint(trees[k].Tree.N()) - 1
		rep.Completeness[k] = GroupCompleteness{
			Group:        k,
			MasksScanned: res.Equations,
			MasksTotal:   total,
			Complete:     res.Equations == total,
		}
		rep.Equations += res.Equations
		for _, v := range res.Violations {
			rep.Violations = append(rep.Violations, vtree.Violation{
				Set: trees[k].ToGlobal(v.Set),
				CV:  v.CV,
				AV:  v.AV,
			})
		}
	}
	sort.Slice(rep.Violations, func(i, j int) bool {
		return rep.Violations[i].Set < rep.Violations[j].Set
	})
	return rep
}

// EquationCount returns Σ_k (2^{N_k} − 1), the number of equations the
// grouped validator evaluates.
func EquationCount(gr overlap.Grouping) int64 {
	var total int64
	for _, g := range gr.Groups {
		total += int64(1)<<uint(g.Size) - 1
	}
	return total
}

// FullEquationCount returns 2^N − 1 as a float64 (N can exceed 62), the
// equation count of the undivided validator.
func FullEquationCount(n int) float64 {
	return math.Pow(2, float64(n)) - 1
}

// Gain computes the paper's eq. 3: G ≈ (2^N − 1) / Σ_k (2^{N_k} − 1).
// It is 1 for a single group and (2^N−1)/N when every license is isolated.
func Gain(gr overlap.Grouping) float64 {
	denom := float64(EquationCount(gr))
	if denom == 0 {
		return 1
	}
	return FullEquationCount(gr.N) / denom
}
