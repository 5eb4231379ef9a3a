package optibfs

import (
	"context"
	"strings"
	"testing"
)

func TestReorderWrappers(t *testing.T) {
	g, err := NewPowerLaw(2048, 16384, 2.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialBFS(g, 0)

	g2, perm, err := ReorderByBFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := SerialBFS(g2, perm[0])
	for v := int32(0); v < g.NumVertices(); v++ {
		if want[v] != got[perm[v]] {
			t.Fatalf("BFS reorder changed distance of %d: %d vs %d", v, want[v], got[perm[v]])
		}
	}

	g3, perm3, err := ReorderByDegree(g)
	if err != nil {
		t.Fatal(err)
	}
	if g3.OutDegree(0) < g3.OutDegree(g3.NumVertices()-1) {
		t.Fatal("degree reorder did not pack hubs first")
	}
	got3 := SerialBFS(g3, perm3[0])
	for v := int32(0); v < g.NumVertices(); v++ {
		if want[v] != got3[perm3[v]] {
			t.Fatalf("degree reorder changed distance of %d", v)
		}
	}

	if _, _, err := ReorderByBFS(g, -1); err == nil {
		t.Fatal("accepted bad source")
	}
}

func TestParentsAndPathsPublic(t *testing.T) {
	g, err := NewLayered(5000, 30000, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(g, 0, BFSWSL, &Options{Workers: 4, TrackParents: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateParents(g, 0, res.Dist, res.Parent); err != nil {
		t.Fatal(err)
	}
	dst := g.NumVertices() - 1
	path := PathTo(res.Parent, dst)
	if int32(len(path)-1) != res.Dist[dst] {
		t.Fatalf("path length %d != dist %d", len(path)-1, res.Dist[dst])
	}
	if path[0] != 0 || path[len(path)-1] != dst {
		t.Fatalf("path endpoints wrong: %v", path)
	}
}

func TestLevelSizesPublic(t *testing.T) {
	g, err := NewGrid(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(g, 0, BFSCL, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelSizes) != int(res.Levels) {
		t.Fatalf("LevelSizes %d entries, Levels %d", len(res.LevelSizes), res.Levels)
	}
	if res.LevelSizes[0] != 1 {
		t.Fatalf("level 0 size %d", res.LevelSizes[0])
	}
}

func TestDirectionOptimizingPublic(t *testing.T) {
	g, err := NewRMAT(8192, 1<<18, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(g, 0, DirectionOptimizing, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := SerialBFS(g, 0)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] wrong", v)
		}
	}
	if res.Counters.BottomUpLevels == 0 {
		t.Fatal("direction optimization never engaged on a dense RMAT graph")
	}
}

func TestAllAlgorithmsNamed(t *testing.T) {
	// Every listed algorithm must have a distinct non-empty name.
	seen := map[Algorithm]bool{}
	for _, a := range Algorithms {
		if a == "" {
			t.Fatal("empty algorithm name")
		}
		if seen[a] {
			t.Fatalf("duplicate algorithm %q", a)
		}
		seen[a] = true
	}
	if !strings.HasPrefix(string(Baseline2Read), "Baseline2:") {
		t.Fatal("baseline2 naming convention broken")
	}
}

func TestWriteEdgeListPublicRoundTrip(t *testing.T) {
	g, err := FromEdges(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("m=%d", g2.NumEdges())
	}
}

func TestNewModelGenerators(t *testing.T) {
	ba, err := NewBarabasiAlbert(1000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := ba.MaxDegree(); float64(d) < 4*ba.AvgDegree() {
		t.Fatalf("BA produced no hubs: max=%d avg=%.1f", d, ba.AvgDegree())
	}
	sw, err := NewSmallWorld(1000, 6, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	dist := SerialBFS(sw, 0)
	reached := 0
	for _, d := range dist {
		if d != Unreached {
			reached++
		}
	}
	if reached != 1000 {
		t.Fatalf("small world reached %d/1000", reached)
	}
}

func TestAnalysisWrappers(t *testing.T) {
	g, err := NewSmallWorld(2000, 6, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	labels, sizes, err := ConnectedComponents(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2000 || len(sizes) != 1 {
		t.Fatalf("components: %d labels, %d components", len(labels), len(sizes))
	}
	diam, err := EstimateDiameter(g, 0, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if diam < 3 {
		t.Fatalf("diameter bound %d implausibly small", diam)
	}
	bc, err := Betweenness(g, []int32{0, 500, 1000}, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	positive := false
	for _, v := range bc {
		if v > 0 {
			positive = true
			break
		}
	}
	if !positive {
		t.Fatal("betweenness all zero")
	}
}

func TestPersistentWorkersPublic(t *testing.T) {
	g, err := NewLayered(3000, 20000, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialBFS(g, 0)
	res, err := BFS(g, 0, BFSWSL, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] wrong", v)
		}
	}
}

func TestTracePublic(t *testing.T) {
	g, err := NewRandom(2000, 16000, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(g, 0, BFSCL, &Options{Workers: 4, TraceCapacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, evs := range res.Events {
		for _, e := range evs {
			if e.Kind == EventFetch {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no fetch events in public trace")
	}
}

func TestBFSContextPublic(t *testing.T) {
	g, err := NewRandom(500, 2500, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res, err := BFSContext(ctx, g, 0, BFSWSL, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached < 1 {
		t.Fatal("no progress")
	}
	cancel()
	if _, err := BFSContext(ctx, g, 0, BFSCL, nil); err == nil {
		t.Fatal("canceled context accepted")
	}
	if _, err := BFSContext(ctx, g, 0, Baseline1, nil); err == nil {
		t.Fatal("baseline accepted canceled context")
	}
}
