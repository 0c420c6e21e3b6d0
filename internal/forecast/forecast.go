// Package forecast projects how the validation plan evolves as
// redistribution licenses expire.
//
// A license whose validity period has lapsed can no longer admit new
// issuances; once every log record attributable to it has been audited it
// drops out of the *active* corpus. Expiry therefore only ever shrinks
// groups — sometimes splitting them (exactly when the expiring license is
// a cut vertex of its overlap group, see overlap.CutLicenses) — so the
// number of validation equations Σ(2^{N_k}−1) falls monotonically and
// eq. 3's gain rises. Timeline computes that trajectory: one step per
// distinct expiry time, with the active set, grouping, equation count,
// and gain after each wave of expiries.
//
// The validation authority uses this to schedule audits (run the
// expensive ones after a group-splitting expiry) and the owner to see
// which licenses hold expensive groups together.
package forecast

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/license"
	"repro/internal/overlap"
)

// Step is the validation plan after all licenses expiring at Time lapse.
type Step struct {
	// Time is the expiry coordinate (e.g. an epoch day for date axes).
	Time int64
	// Expired lists the licenses lapsing exactly at Time.
	Expired bitset.Mask
	// Active is the remaining license set.
	Active bitset.Mask
	// Groups is the grouping of the active set (masks use GLOBAL corpus
	// indexes).
	Groups []bitset.Mask
	// Equations is Σ(2^{N_k}−1) over the active groups.
	Equations int64
	// Gain is eq. 3 evaluated for the active set: (2^|Active|−1) / Equations.
	Gain float64
	// Split reports whether this expiry wave increased the group count
	// relative to the previous step (net of wholly-expired groups).
	Split bool
}

// Timeline computes expiry steps for the corpus along the named interval
// axis. Step 0 is the initial plan (Time = one before the earliest expiry,
// nothing expired); subsequent steps follow expiry order. Licenses sharing
// an expiry coordinate lapse together.
func Timeline(c *license.Corpus, axisName string) ([]Step, error) {
	axis, ok := c.Schema().AxisIndex(axisName)
	if !ok {
		return nil, fmt.Errorf("forecast: schema has no axis %q", axisName)
	}
	if c.Schema().Axis(axis).Kind != geometry.KindInterval {
		return nil, fmt.Errorf("forecast: axis %q is not an interval axis", axisName)
	}
	n := c.Len()
	if n == 0 {
		return nil, fmt.Errorf("forecast: empty corpus")
	}

	// Group licenses by expiry coordinate (the axis interval's Hi).
	expiries := make(map[int64]bitset.Mask)
	for i := 0; i < n; i++ {
		hi := c.License(i).Rect.Value(axis).Interval().Hi
		expiries[hi] = expiries[hi].With(i)
	}
	times := make([]int64, 0, len(expiries))
	for t := range expiries {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	adj := overlap.BuildMaskAdjacency(c)
	active := bitset.FullMask(n)
	steps := make([]Step, 0, len(times)+1)
	initial := planFor(adj, active)
	initial.Time = times[0] - 1
	steps = append(steps, initial)

	prevGroups := len(initial.Groups)
	for _, t := range times {
		expired := expiries[t]
		active = active.Diff(expired)
		step := planFor(adj, active)
		step.Time = t
		step.Expired = expired
		// A split happened if the survivors of previously-connected
		// licenses now form more groups: compare against the previous
		// step's group count minus groups that vanished entirely.
		vanished := 0
		for _, g := range steps[len(steps)-1].Groups {
			if g.SubsetOf(expired) {
				vanished++
			}
		}
		step.Split = len(step.Groups) > prevGroups-vanished
		steps = append(steps, step)
		prevGroups = len(step.Groups)
	}
	return steps, nil
}

// planFor computes the grouping restricted to the active set: the mask
// closure over overlap rows cut down to active licenses, in which each
// inactive license is a singleton group that is dropped.
func planFor(adj overlap.MaskAdjacency, active bitset.Mask) Step {
	step := Step{Active: active}
	sub := make(overlap.MaskAdjacency, len(adj))
	active.ForEach(func(i int) bool {
		sub[i] = adj[i].Intersect(active)
		return true
	})
	for _, g := range overlap.GroupsMask(sub).Groups {
		if g.Members.SubsetOf(active) {
			step.Groups = append(step.Groups, g.Members)
			step.Equations += int64(1)<<uint(g.Size) - 1
		}
	}
	if step.Equations > 0 {
		step.Gain = core.FullEquationCount(active.Len()) / float64(step.Equations)
	} else {
		step.Gain = 1
	}
	return step
}
