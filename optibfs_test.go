package optibfs

import (
	"bytes"
	"testing"
)

func TestBFSAllPublicAlgorithms(t *testing.T) {
	g, err := NewRMAT(1024, 8192, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialBFS(g, 0)
	for _, algo := range Algorithms {
		res, err := BFS(g, 0, algo, &Options{Workers: 4, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for v := range want {
			if res.Dist[v] != want[v] {
				t.Fatalf("%s: dist[%d]=%d want %d", algo, v, res.Dist[v], want[v])
			}
		}
		if err := Validate(g, 0, res.Dist); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

func TestBFSNilOptions(t *testing.T) {
	g, err := NewRandom(100, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(g, 0, BFSWSL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached < 1 {
		t.Fatalf("reached %d", res.Reached)
	}
}

func TestBFSUnknownAlgorithm(t *testing.T) {
	g, _ := NewGrid(3, 3)
	if _, err := BFS(g, 0, Algorithm("made-up"), nil); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestLockfreeClassification(t *testing.T) {
	for _, a := range []Algorithm{BFSCL, BFSDL, BFSWL, BFSWSL, BFSEL, DirectionOptimizing} {
		if !a.Lockfree() {
			t.Fatalf("%s not classified lockfree", a)
		}
	}
	for _, a := range []Algorithm{Serial, BFSC, BFSW, BFSWS, Baseline1, Baseline2QueueCAS} {
		if a.Lockfree() {
			t.Fatalf("%s misclassified lockfree", a)
		}
	}
}

func TestPublicConstructors(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*Graph, error)
	}{
		{"rmat", func() (*Graph, error) { return NewRMAT(256, 1024, 1) }},
		{"powerlaw", func() (*Graph, error) { return NewPowerLaw(256, 1024, 2.2, 1) }},
		{"layered", func() (*Graph, error) { return NewLayered(256, 1024, 8, 1) }},
		{"random", func() (*Graph, error) { return NewRandom(256, 1024, 1) }},
		{"grid", func() (*Graph, error) { return NewGrid(16, 16) }},
	}
	for _, tc := range cases {
		g, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g.NumVertices() != 256 {
			t.Fatalf("%s: n=%d", tc.name, g.NumVertices())
		}
	}
}

func TestFromEdgesAndUndirected(t *testing.T) {
	g, err := FromEdges(3, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	u, err := FromEdgesUndirected(3, []Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if u.NumEdges() != 2 {
		t.Fatalf("undirected m=%d", u.NumEdges())
	}
	dist := SerialBFS(u, 1)
	if dist[0] != 1 {
		t.Fatalf("reverse edge missing: %v", dist)
	}
}

func TestPublicIORoundTrips(t *testing.T) {
	g, err := NewPowerLaw(200, 1200, 2.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	var mm, el, bin bytes.Buffer
	if err := WriteMatrixMarket(&mm, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*Graph, error){
		"mtx": func() (*Graph, error) { return ReadMatrixMarket(&mm) },
		"bin": func() (*Graph, error) { return ReadBinary(&bin) },
	} {
		g2, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: shape changed", name)
		}
	}
	g3, err := ReadEdgeList(&el)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Fatalf("edge list lost edges")
	}
}

func TestResultCountersExposed(t *testing.T) {
	g, err := NewPowerLaw(2048, 16384, 2.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BFSWSL, DirectionOptimizing} {
		res, err := BFS(g, 0, algo, &Options{Workers: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var c Counters = res.Counters
		if c.EdgesScanned == 0 {
			t.Fatalf("%s: counters not populated", algo)
		}
		if c.AtomicRMW != 0 || c.LockAcquisitions != 0 {
			t.Fatalf("%s reported %d atomic RMW, %d lock acquisitions", algo, c.AtomicRMW, c.LockAcquisitions)
		}
	}
	resB, err := BFS(g, 0, Baseline2LocalQueueBitmap, &Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Counters.AtomicRMW == 0 {
		t.Fatal("baseline2 reported no atomic RMW")
	}
}
