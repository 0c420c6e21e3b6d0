// Package overlap implements §3.3: the overlap graph over redistribution
// licenses and the identification of disconnected groups.
//
// Vertices are corpus indexes; an edge joins i and j iff the two licenses'
// hyper-rectangles overlap on every constraint axis (geometry.Rect.Overlaps).
// The connected components of this graph are the paper's groups: by
// Corollary 1.1 no issued license can ever belong to licenses from two
// different components, so validation equations spanning components are
// redundant (Theorem 2) and the validation tree can be divided per group.
//
// Two group finders are provided:
//
//   - Groups — the paper's Algorithm 3: depth-first search over an N×N
//     adjacency matrix;
//   - Grouper — an incremental union-find structure supporting the paper's
//     fig-6 discussion (adding a license can keep, raise, or collapse the
//     group count) without recomputing from scratch.
//
// Both produce identical partitions (property-tested).
package overlap

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/license"
)

// Adjacency is the symmetric boolean overlap matrix of a corpus: the
// paper's Adj, with Adj[i][j] == true iff licenses i and j overlap. The
// diagonal is false by convention.
type Adjacency [][]bool

// BuildAdjacency computes the overlap matrix of the corpus with the
// pairwise geometric test of §3.2.
func BuildAdjacency(c *license.Corpus) Adjacency {
	n := c.Len()
	adj := make(Adjacency, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c.License(i).Rect.Overlaps(c.License(j).Rect) {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	return adj
}

// Group is one connected component: the member set and its size N_k.
type Group struct {
	// Members is the component as a corpus-index mask (a row of the
	// paper's Group array).
	Members bitset.Mask
	// Size is N_k = |Members| (the paper's GroupSize[k]).
	Size int
}

// Grouping is a partition of corpus indexes into disconnected groups,
// ordered by smallest member (the order Algorithm 3 discovers them in).
type Grouping struct {
	// Groups lists the components; Groups[k].Members partition [0, N).
	Groups []Group
	// N is the number of licenses partitioned.
	N int
}

// NumGroups returns g, the number of disconnected groups.
func (gr Grouping) NumGroups() int { return len(gr.Groups) }

// GroupOf returns the index k of the group containing license i, or -1.
func (gr Grouping) GroupOf(i int) int {
	for k, g := range gr.Groups {
		if g.Members.Has(i) {
			return k
		}
	}
	return -1
}

// Sizes returns the N_k sequence.
func (gr Grouping) Sizes() []int {
	out := make([]int, len(gr.Groups))
	for k, g := range gr.Groups {
		out[k] = g.Size
	}
	return out
}

// Validate checks that the grouping is a partition of [0, N).
func (gr Grouping) Validate() error {
	var seen bitset.Mask
	for k, g := range gr.Groups {
		if g.Members.Empty() {
			return fmt.Errorf("overlap: group %d is empty", k)
		}
		if g.Size != g.Members.Len() {
			return fmt.Errorf("overlap: group %d size %d != |members| %d", k, g.Size, g.Members.Len())
		}
		if seen.Intersects(g.Members) {
			return fmt.Errorf("overlap: group %d overlaps earlier groups", k)
		}
		seen = seen.Union(g.Members)
	}
	if seen != bitset.FullMask(gr.N) {
		return fmt.Errorf("overlap: groups cover %v, want all %d licenses", seen, gr.N)
	}
	return nil
}

// String renders like "[{1,2,4} {3,5}]" with one-based license numbers.
func (gr Grouping) String() string {
	s := "["
	for k, g := range gr.Groups {
		if k > 0 {
			s += " "
		}
		s += g.Members.String()
	}
	return s + "]"
}

// Groups runs the paper's Algorithm 3: DFS over the adjacency matrix,
// emitting components in order of their smallest member.
func Groups(adj Adjacency) Grouping {
	n := len(adj)
	visited := make([]bool, n)
	gr := Grouping{N: n}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		var members bitset.Mask
		// Iterative DFS (the paper's Depth_first subroutine, without the
		// recursion depth hazard).
		stack := []int{i}
		visited[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = members.With(v)
			for j := 0; j < n; j++ {
				if adj[v][j] && !visited[j] {
					visited[j] = true
					stack = append(stack, j)
				}
			}
		}
		gr.Groups = append(gr.Groups, Group{Members: members, Size: members.Len()})
	}
	return gr
}

// GroupsOf is the common composition: adjacency + DFS in one call.
func GroupsOf(c *license.Corpus) Grouping {
	return Groups(BuildAdjacency(c))
}

// MaskAdjacency is the overlap matrix with bitset rows: row i is the mask
// of licenses overlapping license i. It enables word-parallel component
// finding (GroupsMask) — 64 adjacency bits per machine word instead of
// one bool per byte.
type MaskAdjacency []bitset.Mask

// BuildMaskAdjacency computes the bitset-row overlap matrix.
func BuildMaskAdjacency(c *license.Corpus) MaskAdjacency {
	n := c.Len()
	adj := make(MaskAdjacency, n)
	for i := 0; i < n; i++ {
		ri := c.License(i).Rect
		for j := i + 1; j < n; j++ {
			if ri.Overlaps(c.License(j).Rect) {
				adj[i] = adj[i].With(j)
				adj[j] = adj[j].With(i)
			}
		}
	}
	return adj
}

// GroupsMask finds connected components by mask closure: starting from a
// seed license, repeatedly union the adjacency rows of every member until
// the frontier empties — each iteration absorbs a whole neighbour set with
// word-wide ORs. Produces exactly the partition Groups produces
// (property-tested).
func GroupsMask(adj MaskAdjacency) Grouping {
	n := len(adj)
	gr := Grouping{N: n}
	var assigned bitset.Mask
	for i := 0; i < n; i++ {
		if assigned.Has(i) {
			continue
		}
		members := bitset.MaskOf(i)
		frontier := bitset.MaskOf(i)
		for !frontier.Empty() {
			var next bitset.Mask
			frontier.ForEach(func(v int) bool {
				next = next.Union(adj[v])
				return true
			})
			frontier = next.Diff(members)
			members = members.Union(next)
		}
		assigned = assigned.Union(members)
		gr.Groups = append(gr.Groups, Group{Members: members, Size: members.Len()})
	}
	return gr
}

// CutLicenses returns the articulation licenses of each group: members
// whose removal (expiry, revocation) would split their group into two or
// more groups, making validation strictly cheaper (eq. 3's denominator
// drops). Computed with Tarjan's articulation-point algorithm per
// component. The result is a mask over all corpus indexes.
func CutLicenses(adj Adjacency) bitset.Mask {
	n := len(adj)
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
		disc[i] = -1
	}
	var cuts bitset.Mask
	timer := 0
	var dfs func(u int)
	dfs = func(u int) {
		timer++
		disc[u] = timer
		low[u] = timer
		children := 0
		for v := 0; v < n; v++ {
			if !adj[u][v] {
				continue
			}
			if disc[v] == -1 {
				children++
				parent[v] = u
				dfs(v)
				if low[v] < low[u] {
					low[u] = low[v]
				}
				if parent[u] != -1 && low[v] >= disc[u] {
					cuts = cuts.With(u)
				}
			} else if v != parent[u] && disc[v] < low[u] {
				low[u] = disc[v]
			}
		}
		if parent[u] == -1 && children > 1 {
			cuts = cuts.With(u)
		}
	}
	for i := 0; i < n; i++ {
		if disc[i] == -1 {
			dfs(i)
		}
	}
	return cuts
}

// Grouper maintains groups incrementally with union-find as licenses are
// added one at a time — the fig-6 scenario ("let a new redistribution
// license L_D^6 be added"). Adding a license unions it with every existing
// license it overlaps; the group count then stays, grows by one, or drops.
type Grouper struct {
	corpus *license.Corpus
	parent []int
	rank   []int
}

// NewGrouper returns a Grouper over an empty or pre-filled corpus. Existing
// corpus licenses are incorporated immediately.
func NewGrouper(c *license.Corpus) *Grouper {
	g := &Grouper{corpus: c}
	for i := 0; i < c.Len(); i++ {
		g.attach(i)
	}
	return g
}

// Add appends the license to the underlying corpus and merges groups as
// dictated by its overlaps. It returns the license's corpus index.
func (g *Grouper) Add(l *license.License) (int, error) {
	idx, err := g.corpus.Add(l)
	if err != nil {
		return 0, err
	}
	g.attach(idx)
	return idx, nil
}

// attach registers index i and unions it with all overlapping predecessors.
func (g *Grouper) attach(i int) {
	g.parent = append(g.parent, i)
	g.rank = append(g.rank, 0)
	ri := g.corpus.License(i).Rect
	for j := 0; j < i; j++ {
		if g.corpus.License(j).Rect.Overlaps(ri) {
			g.union(i, j)
		}
	}
}

func (g *Grouper) find(x int) int {
	for g.parent[x] != x {
		g.parent[x] = g.parent[g.parent[x]] // path halving
		x = g.parent[x]
	}
	return x
}

func (g *Grouper) union(a, b int) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return
	}
	if g.rank[ra] < g.rank[rb] {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	if g.rank[ra] == g.rank[rb] {
		g.rank[ra]++
	}
}

// findRead resolves x's root without path halving, so concurrent readers
// (drmserver's stats, status and contents endpoints, and a cache build
// under the distributor's mutex) never write.
func (g *Grouper) findRead(x int) int {
	for g.parent[x] != x {
		x = g.parent[x]
	}
	return x
}

// RootOf returns the root license index of i's overlap component — a
// cheap, stable group label for per-group accounting on the issuance
// hot path (Grouping() materialises maps and slices; this is a pointer
// walk). Read-only on the union-find, safe under a shared lock.
func (g *Grouper) RootOf(i int) int { return g.findRead(i) }

// NumGroups returns the current number of groups. It is read-only on the
// union-find state and therefore safe under a shared (read) lock alongside
// other readers; Add still requires exclusive access.
func (g *Grouper) NumGroups() int {
	n := 0
	for i := range g.parent {
		if g.findRead(i) == i {
			n++
		}
	}
	return n
}

// SameGroup reports whether licenses i and j are currently connected.
func (g *Grouper) SameGroup(i, j int) bool { return g.find(i) == g.find(j) }

// Grouping materialises the current partition in canonical order (groups
// sorted by smallest member), matching what Algorithm 3 produces. Like
// NumGroups it is read-only on the union-find, so it may run beside
// other readers; Add still requires exclusive access.
func (g *Grouper) Grouping() Grouping {
	byRoot := make(map[int]bitset.Mask)
	for i := range g.parent {
		r := g.findRead(i)
		byRoot[r] = byRoot[r].With(i)
	}
	gr := Grouping{N: len(g.parent)}
	for _, m := range byRoot {
		gr.Groups = append(gr.Groups, Group{Members: m, Size: m.Len()})
	}
	sort.Slice(gr.Groups, func(a, b int) bool {
		return gr.Groups[a].Members.Min() < gr.Groups[b].Members.Min()
	})
	return gr
}
