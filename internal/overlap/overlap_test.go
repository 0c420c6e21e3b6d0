package overlap

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/geometry"
	"repro/internal/interval"
	"repro/internal/license"
)

func TestExample1Adjacency(t *testing.T) {
	// Fig 3's matrix: edges L1-L2, L1-L4, L3-L5 only.
	ex := license.NewExample1()
	adj := BuildAdjacency(ex.Corpus)
	wantEdges := map[[2]int]bool{{0, 1}: true, {0, 3}: true, {2, 4}: true}
	for i := 0; i < 5; i++ {
		if adj[i][i] {
			t.Errorf("diagonal Adj[%d][%d] set", i, i)
		}
		for j := i + 1; j < 5; j++ {
			want := wantEdges[[2]int{i, j}]
			if adj[i][j] != want || adj[j][i] != want {
				t.Errorf("Adj[%d][%d] = %v, want %v", i, j, adj[i][j], want)
			}
		}
	}
}

func TestExample1Groups(t *testing.T) {
	// Fig 3: groups (L1,L2,L4) and (L3,L5) — Group rows (1,1,0,1,0) and
	// (0,0,1,0,1).
	ex := license.NewExample1()
	gr := GroupsOf(ex.Corpus)
	if gr.NumGroups() != 2 {
		t.Fatalf("groups = %d, want 2", gr.NumGroups())
	}
	if gr.Groups[0].Members != bitset.MaskOf(0, 1, 3) {
		t.Errorf("group 1 = %v, want {1,2,4}", gr.Groups[0].Members)
	}
	if gr.Groups[1].Members != bitset.MaskOf(2, 4) {
		t.Errorf("group 2 = %v, want {3,5}", gr.Groups[1].Members)
	}
	if got := gr.Sizes(); got[0] != 3 || got[1] != 2 {
		t.Errorf("sizes = %v, want [3 2]", got)
	}
	if err := gr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got := gr.String(); got != "[{1,2,4} {3,5}]" {
		t.Errorf("String = %q", got)
	}
}

func TestGroupOf(t *testing.T) {
	ex := license.NewExample1()
	gr := GroupsOf(ex.Corpus)
	want := []int{0, 0, 1, 0, 1}
	for i, w := range want {
		if got := gr.GroupOf(i); got != w {
			t.Errorf("GroupOf(%d) = %d, want %d", i, got, w)
		}
	}
	if gr.GroupOf(99) != -1 {
		t.Error("GroupOf(out of range) != -1")
	}
}

func TestGroupsEmptyAndSingleton(t *testing.T) {
	gr := Groups(Adjacency{})
	if gr.NumGroups() != 0 || gr.Validate() != nil {
		t.Errorf("empty grouping = %+v", gr)
	}
	gr = Groups(Adjacency{{false}})
	if gr.NumGroups() != 1 || gr.Groups[0].Members != bitset.MaskOf(0) {
		t.Errorf("singleton grouping = %+v", gr)
	}
}

func TestGroupsChainConnectivity(t *testing.T) {
	// 0-1, 1-2 connected without a 0-2 edge: connectivity is transitive,
	// clique-ness is not required (this mirrors L2,L1,L4 in the example:
	// L2 and L4 don't overlap yet share a group through L1).
	adj := Adjacency{
		{false, true, false},
		{true, false, true},
		{false, true, false},
	}
	gr := Groups(adj)
	if gr.NumGroups() != 1 {
		t.Errorf("chain groups = %d, want 1", gr.NumGroups())
	}
}

func TestValidateCatchesBadGroupings(t *testing.T) {
	bad := []Grouping{
		{N: 2, Groups: []Group{{Members: bitset.MaskOf(0), Size: 1}}},                                          // misses 1
		{N: 1, Groups: []Group{{Members: 0, Size: 0}}},                                                         // empty group
		{N: 2, Groups: []Group{{Members: bitset.MaskOf(0, 1), Size: 1}}},                                       // bad size
		{N: 2, Groups: []Group{{Members: bitset.MaskOf(0, 1), Size: 2}, {Members: bitset.MaskOf(1), Size: 1}}}, // overlap
	}
	for i, gr := range bad {
		if gr.Validate() == nil {
			t.Errorf("bad grouping %d accepted", i)
		}
	}
}

// lineCorpus builds a corpus of 1-D interval licenses from (lo,hi) pairs —
// the cheapest way to script arbitrary overlap structure.
func lineCorpus(t testing.TB, spans ...[2]int64) *license.Corpus {
	t.Helper()
	schema := geometry.MustSchema(geometry.Axis{Name: "x", Kind: geometry.KindInterval})
	c := license.NewCorpus(schema)
	for _, s := range spans {
		c.MustAdd(&license.License{
			Name:       "L",
			Kind:       license.Redistribution,
			Content:    "K",
			Permission: license.Play,
			Rect:       geometry.MustRect(schema, geometry.IntervalValue(interval.New(s[0], s[1]))),
			Aggregate:  100,
		})
	}
	return c
}

func TestGrouperIncrementalScenarios(t *testing.T) {
	// The fig-6 discussion: adding a license can keep, raise, or collapse
	// the group count.
	schema := geometry.MustSchema(geometry.Axis{Name: "x", Kind: geometry.KindInterval})
	mk := func(lo, hi int64) *license.License {
		return &license.License{
			Name: "L", Kind: license.Redistribution, Content: "K",
			Permission: license.Play,
			Rect:       geometry.MustRect(schema, geometry.IntervalValue(interval.New(lo, hi))),
			Aggregate:  100,
		}
	}
	g := NewGrouper(license.NewCorpus(schema))
	if _, err := g.Add(mk(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(mk(100, 110)); err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Fatalf("after two disjoint adds: groups = %d, want 2", g.NumGroups())
	}
	// Same count: new license overlaps only group 1.
	if _, err := g.Add(mk(5, 15)); err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Errorf("overlap-one add: groups = %d, want 2", g.NumGroups())
	}
	// Increase: disjoint from everything.
	if _, err := g.Add(mk(1000, 1010)); err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 3 {
		t.Errorf("disjoint add: groups = %d, want 3", g.NumGroups())
	}
	// Decrease: bridges the first two groups.
	if _, err := g.Add(mk(8, 105)); err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Errorf("bridging add: groups = %d, want 2", g.NumGroups())
	}
	if !g.SameGroup(0, 1) {
		t.Error("bridged licenses not in the same group")
	}
	if g.SameGroup(0, 3) {
		t.Error("isolated license merged erroneously")
	}
}

func TestGrouperMatchesDFSQuick(t *testing.T) {
	// DESIGN.md invariant 4: union-find and Algorithm 3 agree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		spans := make([][2]int64, n)
		for i := range spans {
			lo := r.Int63n(100)
			spans[i] = [2]int64{lo, lo + r.Int63n(15)}
		}
		c := lineCorpus(t, spans...)
		dfs := GroupsOf(c)
		uf := NewGrouper(c).Grouping()
		if dfs.Validate() != nil || uf.Validate() != nil {
			return false
		}
		if len(dfs.Groups) != len(uf.Groups) {
			return false
		}
		for k := range dfs.Groups {
			if dfs.Groups[k].Members != uf.Groups[k].Members {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroupsAreMaximallyDisconnected(t *testing.T) {
	// Property: licenses in different groups never overlap; every group of
	// size >1 is connected (each member overlaps some other member).
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(15)
		spans := make([][2]int64, n)
		for i := range spans {
			lo := r.Int63n(60)
			spans[i] = [2]int64{lo, lo + r.Int63n(10)}
		}
		c := lineCorpus(t, spans...)
		adj := BuildAdjacency(c)
		gr := Groups(adj)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if gr.GroupOf(i) != gr.GroupOf(j) && adj[i][j] {
					t.Fatalf("cross-group overlap %d-%d", i, j)
				}
			}
		}
		for _, g := range gr.Groups {
			if g.Size == 1 {
				continue
			}
			g.Members.ForEach(func(i int) bool {
				connected := false
				g.Members.ForEach(func(j int) bool {
					if i != j && adj[i][j] {
						connected = true
						return false
					}
					return true
				})
				if !connected {
					t.Fatalf("license %d isolated inside group %v", i, g.Members)
				}
				return true
			})
		}
	}
}

func TestWriteDOT(t *testing.T) {
	ex := license.NewExample1()
	adj := BuildAdjacency(ex.Corpus)
	gr := Groups(adj)
	var buf strings.Builder
	names := make([]string, ex.Corpus.Len())
	for i := range names {
		names[i] = ex.Corpus.License(i).Name
	}
	if err := WriteDOT(&buf, adj, gr, names); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"graph overlap {",
		"subgraph cluster_0",
		"subgraph cluster_1",
		`label="L_D^1"`,
		"n0 -- n1;", // L1-L2
		"n0 -- n3;", // L1-L4
		"n2 -- n4;", // L3-L5
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Exactly the fig-3 edges, no others.
	if got := strings.Count(out, " -- "); got != 3 {
		t.Errorf("edge count = %d, want 3", got)
	}
	// Nil labels fall back to paper numbering.
	buf.Reset()
	if err := WriteDOT(&buf, adj, gr, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `label="L1"`) {
		t.Error("fallback labels missing")
	}
}

func TestGroupsMaskMatchesDFSQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		spans := make([][2]int64, n)
		for i := range spans {
			lo := r.Int63n(120)
			spans[i] = [2]int64{lo, lo + r.Int63n(15)}
		}
		c := lineCorpus(t, spans...)
		dfs := GroupsOf(c)
		mask := GroupsMask(BuildMaskAdjacency(c))
		if mask.Validate() != nil || len(dfs.Groups) != len(mask.Groups) {
			return false
		}
		for k := range dfs.Groups {
			if dfs.Groups[k].Members != mask.Groups[k].Members {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCutLicensesExample1(t *testing.T) {
	// Fig 3: group (L1,L2,L4) is a star centred on L1 — removing L1 splits
	// it; L2, L4 are leaves. Group (L3,L5) is an edge — no cut vertex.
	ex := license.NewExample1()
	cuts := CutLicenses(BuildAdjacency(ex.Corpus))
	if cuts != bitset.MaskOf(0) {
		t.Errorf("cut licenses = %v, want {1}", cuts)
	}
}

func TestCutLicensesChainAndCycle(t *testing.T) {
	// Chain 0-1-2: the middle is a cut vertex.
	chain := Adjacency{
		{false, true, false},
		{true, false, true},
		{false, true, false},
	}
	if got := CutLicenses(chain); got != bitset.MaskOf(1) {
		t.Errorf("chain cuts = %v, want {2}", got)
	}
	// Triangle: no cut vertices.
	tri := Adjacency{
		{false, true, true},
		{true, false, true},
		{true, true, false},
	}
	if got := CutLicenses(tri); !got.Empty() {
		t.Errorf("triangle cuts = %v, want none", got)
	}
	// Empty and singleton graphs.
	if got := CutLicenses(Adjacency{}); !got.Empty() {
		t.Errorf("empty cuts = %v", got)
	}
	if got := CutLicenses(Adjacency{{false}}); !got.Empty() {
		t.Errorf("singleton cuts = %v", got)
	}
}

func TestCutLicensesMatchRemovalOracle(t *testing.T) {
	// A vertex is a cut vertex iff removing it increases the component
	// count among the remaining vertices of its group.
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(12)
		adj := make(Adjacency, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					adj[i][j], adj[j][i] = true, true
				}
			}
		}
		cuts := CutLicenses(adj)
		base := Groups(adj)
		for v := 0; v < n; v++ {
			// Remove v: blank its row/column.
			sub := make(Adjacency, n)
			for i := range sub {
				sub[i] = append([]bool(nil), adj[i]...)
			}
			for i := 0; i < n; i++ {
				sub[v][i], sub[i][v] = false, false
			}
			after := Groups(sub)
			// Removing a non-isolated v always isolates it, adding one
			// singleton group; growth beyond that (+2 or more total) means
			// v held its group together. Already-isolated vertices change
			// nothing.
			isCut := after.NumGroups() >= base.NumGroups()+2
			if cuts.Has(v) != isCut {
				t.Fatalf("trial %d: vertex %d cut=%v oracle=%v (base=%d after=%d)\nadj=%v",
					trial, v, cuts.Has(v), isCut, base.NumGroups(), after.NumGroups(), adj)
			}
		}
	}
}

// TestGrouperReadersRunTogether runs Grouping beside NumGroups and
// RootOf on a built grouper: all three only read the union-find, so the
// race detector must find nothing and every reader agrees.
func TestGrouperReadersRunTogether(t *testing.T) {
	schema := geometry.MustSchema(geometry.Axis{Name: "x", Kind: geometry.KindInterval})
	g := NewGrouper(license.NewCorpus(schema))
	// A chain of overlapping licenses added tail first builds a deep
	// union-find; every fifth license starts a new group.
	for i := int64(40); i > 0; i-- {
		lo := 10 * i
		if i%5 == 0 {
			lo += 3 // clear of the next license
		}
		if _, err := g.Add(&license.License{
			Name: "L", Kind: license.Redistribution, Content: "K", Permission: license.Play,
			Rect:      geometry.MustRect(schema, geometry.IntervalValue(interval.New(lo, 10*i+12))),
			Aggregate: 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := g.Grouping()
	done := make(chan int)
	for range 2 {
		go func() {
			n := 0
			for range 200 {
				n = max(n, g.NumGroups(), g.Grouping().NumGroups())
				g.RootOf(39)
			}
			done <- n
		}()
	}
	for range 2 {
		if n := <-done; n != want.NumGroups() {
			t.Fatalf("readers saw %d groups, want %d", n, want.NumGroups())
		}
	}
}
