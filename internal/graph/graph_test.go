package graph

import (
	"testing"
	"testing/quick"

	"optibfs/internal/rng"
)

// diamond returns the 4-vertex diamond 0->1,0->2,1->3,2->3.
func diamond(t *testing.T) *CSR {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := &CSR{}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("empty graph avg degree %g", g.AvgDegree())
	}
}

func TestSingleVertexNoEdges(t *testing.T) {
	g, err := FromEdges(1, nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	dist := ReferenceBFS(g, 0)
	if dist[0] != 0 {
		t.Fatalf("dist[0]=%d", dist[0])
	}
	if err := ValidateDistances(g, 0, dist); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesBasic(t *testing.T) {
	g := diamond(t)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if d := g.OutDegree(0); d != 2 {
		t.Fatalf("deg(0)=%d", d)
	}
	if d := g.OutDegree(3); d != 0 {
		t.Fatalf("deg(3)=%d", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}, BuildOptions{}); err == nil {
		t.Fatal("accepted out-of-range target")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}, BuildOptions{}); err == nil {
		t.Fatal("accepted negative source")
	}
	if _, err := FromEdges(-1, nil, BuildOptions{}); err == nil {
		t.Fatal("accepted negative n")
	}
}

func TestFromEdgesDedup(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {0, 1}, {0, 2}, {0, 1}}, BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("dedup left %d edges, want 2", g.NumEdges())
	}
}

func TestFromEdgesDropSelfLoops(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 0}, {0, 1}, {2, 2}}, BuildOptions{DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("got %d edges, want 1", g.NumEdges())
	}
	if g.Neighbors(0)[0] != 1 {
		t.Fatalf("unexpected edge %v", g.Neighbors(0))
	}
}

func TestFromEdgesSymmetrize(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Symmetrize: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("got %d edges, want 4", g.NumEdges())
	}
	if nb := g.Neighbors(1); len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("neighbors of 1 = %v", nb)
	}
}

func TestFromEdgesDoesNotMutateCaller(t *testing.T) {
	in := []Edge{{1, 0}, {0, 1}, {0, 1}}
	want := append([]Edge(nil), in...)
	if _, err := FromEdges(2, in, BuildOptions{Dedup: true, DropSelfLoops: true}); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("caller slice mutated at %d: %v -> %v", i, want[i], in[i])
		}
	}
}

func TestSortAdjacency(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 3}, {0, 1}, {0, 2}}, BuildOptions{SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] > nb[i] {
			t.Fatalf("adjacency not sorted: %v", nb)
		}
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency([][]int32{{1, 2}, {2}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromAdjacency([][]int32{{5}}); err == nil {
		t.Fatal("accepted out-of-range adjacency")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.NewXoshiro256(11)
	edges := make([]Edge, 200)
	const n = 40
	for i := range edges {
		edges[i] = Edge{Src: r.Int32n(n), Dst: r.Int32n(n)}
	}
	g := MustFromEdges(n, edges, BuildOptions{SortAdjacency: true})
	tt := g.Transpose().Transpose()
	// Sort for canonical comparison.
	g2 := MustFromEdges(n, edgesOf(tt), BuildOptions{SortAdjacency: true})
	if err := equalCSR(g, g2); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeDegreeConservation(t *testing.T) {
	g := diamond(t)
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose changed edge count: %d vs %d", tr.NumEdges(), g.NumEdges())
	}
	if d := tr.OutDegree(3); d != 2 {
		t.Fatalf("in-degree of 3 = %d, want 2", d)
	}
	if d := tr.OutDegree(0); d != 0 {
		t.Fatalf("in-degree of 0 = %d, want 0", d)
	}
}

func edgesOf(g *CSR) []Edge {
	var out []Edge
	for v := int32(0); v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(v) {
			out = append(out, Edge{Src: v, Dst: w})
		}
	}
	return out
}

func equalCSR(a, b *CSR) error {
	ea, eb := edgesOf(a), edgesOf(b)
	if len(ea) != len(eb) {
		return errf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return errf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	return nil
}

func TestReferenceBFSDiamond(t *testing.T) {
	g := diamond(t)
	dist := ReferenceBFS(g, 0)
	want := []int32{0, 1, 1, 2}
	for v, w := range want {
		if dist[v] != w {
			t.Fatalf("dist[%d]=%d want %d (full: %v)", v, dist[v], w, dist)
		}
	}
	if err := ValidateDistances(g, 0, dist); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceBFSUnreachable(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}}, BuildOptions{})
	dist := ReferenceBFS(g, 0)
	if dist[2] != Unreached {
		t.Fatalf("dist[2]=%d, want Unreached", dist[2])
	}
	if err := ValidateDistances(g, 0, dist); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDistancesCatchesSkippedLevel(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	bad := []int32{0, 1, 3} // level 3 is unreachable via edge 1->2
	if err := ValidateDistances(g, 0, bad); err == nil {
		t.Fatal("validator accepted skipped level")
	}
}

func TestValidateDistancesCatchesOrphanLevel(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {0, 2}}, BuildOptions{})
	bad := []int32{0, 1, 2} // vertex 2 claims level 2 but only in-neighbor is at level 0
	if err := ValidateDistances(g, 0, bad); err == nil {
		t.Fatal("validator accepted orphan level")
	}
}

func TestValidateDistancesCatchesWrongSource(t *testing.T) {
	g := diamond(t)
	bad := []int32{1, 1, 1, 2}
	if err := ValidateDistances(g, 0, bad); err == nil {
		t.Fatal("validator accepted dist[src] != 0")
	}
	bad2 := []int32{0, 0, 1, 2}
	if err := ValidateDistances(g, 0, bad2); err == nil {
		t.Fatal("validator accepted extra vertex at level 0")
	}
}

func TestValidateDistancesCatchesUnreachedTarget(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 1}}, BuildOptions{})
	bad := []int32{0, Unreached}
	if err := ValidateDistances(g, 0, bad); err == nil {
		t.Fatal("validator accepted unreached target of reached source")
	}
}

func TestValidateDistancesLengthMismatch(t *testing.T) {
	g := diamond(t)
	if err := ValidateDistances(g, 0, []int32{0, 1}); err == nil {
		t.Fatal("validator accepted short dist array")
	}
}

func TestEqualDistances(t *testing.T) {
	if err := EqualDistances([]int32{1, 2}, []int32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := EqualDistances([]int32{1, 2}, []int32{1, 3}); err == nil {
		t.Fatal("accepted differing arrays")
	}
	if err := EqualDistances([]int32{1}, []int32{1, 2}); err == nil {
		t.Fatal("accepted length mismatch")
	}
}

func TestReachedCount(t *testing.T) {
	g := diamond(t)
	dist := ReferenceBFS(g, 0)
	v, e := ReachedCount(g, dist)
	if v != 4 || e != 4 {
		t.Fatalf("reached=%d edges=%d, want 4,4", v, e)
	}
}

func TestEccentricity(t *testing.T) {
	if e := Eccentricity([]int32{0, 1, 2, Unreached}); e != 2 {
		t.Fatalf("ecc=%d want 2", e)
	}
	if e := Eccentricity([]int32{0}); e != 0 {
		t.Fatalf("ecc=%d want 0", e)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := diamond(t)
	h := g.DegreeHistogram(3)
	// degrees: 2,1,1,0 -> h[0]=1 h[1]=2 h[2]=1 (capped bucket)
	if h[0] != 1 || h[1] != 2 || h[2] != 1 {
		t.Fatalf("histogram %v", h)
	}
	if c := g.CountAtLeastDegree(2); c != 1 {
		t.Fatalf("CountAtLeastDegree(2)=%d", c)
	}
}

func TestMaxDegree(t *testing.T) {
	g := MustFromEdges(4, []Edge{{2, 0}, {2, 1}, {2, 3}, {0, 1}}, BuildOptions{})
	d, v := g.MaxDegree()
	if d != 3 || v != 2 {
		t.Fatalf("MaxDegree = (%d,%d), want (3,2)", d, v)
	}
}

func TestValidateCatchesCorruptOffsets(t *testing.T) {
	g := diamond(t)
	g.Offsets[1], g.Offsets[2] = g.Offsets[2], g.Offsets[1] // break monotonicity
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted non-monotone offsets")
	}
}

func TestValidateCatchesBadEdgeTarget(t *testing.T) {
	g := diamond(t)
	g.Edges[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range edge")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond(t) // 0->1, 0->2, 1->3, 2->3
	sub, back, err := g.InducedSubgraph([]int32{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 {
		t.Fatalf("n=%d", sub.NumVertices())
	}
	// Kept edges: 0->1 and 1->3 (0->2 and 2->3 drop with vertex 2).
	if sub.NumEdges() != 2 {
		t.Fatalf("m=%d: %v", sub.NumEdges(), sub.Edges)
	}
	if back[2] != 3 {
		t.Fatalf("back-mapping %v", back)
	}
	dist := ReferenceBFS(sub, 0)
	if dist[2] != 2 { // 0 -> 1 -> 3 in new ids
		t.Fatalf("subgraph distances %v", dist)
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := diamond(t)
	if _, _, err := g.InducedSubgraph([]int32{0, 9}); err == nil {
		t.Fatal("accepted out-of-range vertex")
	}
	if _, _, err := g.InducedSubgraph([]int32{1, 1}); err == nil {
		t.Fatal("accepted duplicate vertex")
	}
	sub, _, err := g.InducedSubgraph(nil)
	if err != nil || sub.NumVertices() != 0 {
		t.Fatalf("empty keep: %v %v", sub, err)
	}
}

// Property: for random graphs, ReferenceBFS output always passes the
// structural validator, and edge/degree bookkeeping is conserved.
func TestPropertyReferenceBFSValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewXoshiro256(seed)
		n := int32(2 + r.Intn(60))
		m := r.Intn(4 * int(n))
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: r.Int32n(n), Dst: r.Int32n(n)}
		}
		g := MustFromEdges(n, edges, BuildOptions{})
		src := r.Int32n(n)
		dist := ReferenceBFS(g, src)
		return ValidateDistances(g, src, dist) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose conserves total edges and per-pair multiplicity.
func TestPropertyTransposeConserves(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewXoshiro256(seed)
		n := int32(1 + r.Intn(40))
		m := r.Intn(3 * int(n))
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: r.Int32n(n), Dst: r.Int32n(n)}
		}
		g := MustFromEdges(n, edges, BuildOptions{})
		tr := g.Transpose()
		if tr.NumEdges() != g.NumEdges() {
			return false
		}
		count := map[Edge]int{}
		for _, e := range edgesOf(g) {
			count[e]++
		}
		for _, e := range edgesOf(tr) {
			count[Edge{Src: e.Dst, Dst: e.Src}]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomCSR(t *testing.T, seed uint64, n int32, m int) *CSR {
	t.Helper()
	r := rng.NewXoshiro256(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: r.Int32n(n), Dst: r.Int32n(n)}
	}
	return MustFromEdges(n, edges, BuildOptions{})
}

// Transpose determinism: the parallel counting/scatter passes must
// produce byte-identical output to the naive serial algorithm (the
// binary format checksums are order-sensitive, and tests elsewhere
// assume in-neighbor lists ascend by source).
func TestTransposeParallelMatchesSerial(t *testing.T) {
	// Big enough to cross the parallel threshold (1<<17 edges).
	g := randomCSR(t, 6, 5000, 1<<17+4096)
	got := g.Transpose()

	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for _, w := range g.Edges {
		offsets[w+1]++
	}
	for v := int32(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	edges := make([]int32, len(g.Edges))
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for u := int32(0); u < n; u++ {
		for _, w := range g.Neighbors(u) {
			edges[cursor[w]] = u
			cursor[w]++
		}
	}

	for v := int32(0); v <= n; v++ {
		if got.Offsets[v] != offsets[v] {
			t.Fatalf("Offsets[%d] = %d, want %d", v, got.Offsets[v], offsets[v])
		}
	}
	for i := range edges {
		if got.Edges[i] != edges[i] {
			t.Fatalf("Edges[%d] = %d, want %d", i, got.Edges[i], edges[i])
		}
	}
}

func TestTransposeCached(t *testing.T) {
	g := randomCSR(t, 7, 64, 256)
	a := g.Transpose()
	if b := g.Transpose(); a != b {
		t.Fatal("Transpose not cached: distinct results")
	}
}
