package core

import (
	"sync"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// TestReorderSemanticsPreserved is the dedicated proof that
// Options.Reorder is invisible to callers: for both relabeling modes,
// across serial and parallel variants, every Result must pass
// Graph500-style validation against the ORIGINAL graph — distances
// equal the original-id oracle and parent arrays (mapped back through
// the inverse permutation by the engine) form a valid BFS tree in
// original ids.
func TestReorderSemanticsPreserved(t *testing.T) {
	g := engineTestGraph(t)
	sources := []int32{0, 1, 977, 2047}
	oracle := make(map[int32][]int32, len(sources))
	for _, src := range sources {
		oracle[src] = graph.ReferenceBFS(g, src)
	}
	for _, mode := range []ReorderMode{ReorderDegree, ReorderBFS} {
		for _, algo := range []Algorithm{Serial, BFSC, BFSCL, BFSWL, BFSWSL, BFSEL} {
			e, err := NewEngine(g, algo, Options{
				Workers: 4, Seed: 11, TrackParents: true, Reorder: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if e.Graph() != g {
				t.Fatalf("%s/%s: Graph() does not return the original graph", algo, mode)
			}
			if e.Permutation() == nil {
				t.Fatalf("%s/%s: no permutation installed", algo, mode)
			}
			for _, src := range sources {
				res, err := e.Run(src)
				if err != nil {
					t.Fatal(err)
				}
				if err := graph.EqualDistances(res.Dist, oracle[src]); err != nil {
					t.Errorf("%s reorder=%s src=%d: %v", algo, mode, src, err)
				}
				if err := graph.ValidateDistances(g, src, res.Dist); err != nil {
					t.Errorf("%s reorder=%s src=%d: %v", algo, mode, src, err)
				}
				if err := graph.ValidateParents(g, src, res.Dist, res.Parent); err != nil {
					t.Errorf("%s reorder=%s src=%d: %v", algo, mode, src, err)
				}
			}
			e.Close()
		}
	}
}

// TestReorderParentsMapThroughInverse pins the exact remap arithmetic
// on a graph small enough to check by hand against the relabeled run:
// a rerun of the engine's backend on the relabeled graph must agree
// with the public Result entry for every vertex once both sides pass
// through the permutation — Dist[old] == rDist[perm[old]] and
// Parent[old] == inv[rParent[perm[old]]].
func TestReorderParentsMapThroughInverse(t *testing.T) {
	g, err := gen.Graph500RMAT(1<<10, 1<<13, 42, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, BFSWSL, Options{Workers: 4, Seed: 3, TrackParents: true, Reorder: ReorderDegree})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	perm := e.Permutation()

	// Independent ground truth in the relabeled space: a serial engine
	// on the engine's internal relabeled graph.
	se, err := NewEngine(e.rg, Serial, Options{Workers: 1, TrackParents: true})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	rres, err := se.Run(perm[0])
	if err != nil {
		t.Fatal(err)
	}

	inv := make([]int32, len(perm))
	for old, newID := range perm {
		inv[newID] = int32(old)
	}
	for old := range perm {
		if got, want := res.Dist[old], rres.Dist[perm[old]]; got != want {
			t.Fatalf("Dist[%d] = %d, want relabeled dist %d", old, got, want)
		}
		p := res.Parent[old]
		if p < 0 {
			if rres.Dist[perm[old]] != graph.Unreached && old != 0 {
				t.Fatalf("Parent[%d] = -1 for reached non-source vertex", old)
			}
			continue
		}
		// The engine's parent must be SOME valid relabeled-space parent
		// mapped through inv: one closer level and an actual in-edge.
		if res.Dist[p]+1 != res.Dist[old] && !(old == 0 && p == 0) {
			t.Fatalf("Parent[%d] = %d not one level closer", old, p)
		}
	}
	// Spot-check that the serial ground truth's parents, mapped through
	// inv by hand, validate in original ids — the same arithmetic
	// remapResult performs.
	mapped := make([]int32, len(perm))
	dist := make([]int32, len(perm))
	for old, newID := range perm {
		dist[old] = rres.Dist[newID]
		if p := rres.Parent[newID]; p >= 0 {
			mapped[old] = inv[p]
		} else {
			mapped[old] = -1
		}
	}
	if err := graph.ValidateParents(g, 0, dist, mapped); err != nil {
		t.Fatalf("hand-mapped relabeled parents invalid in original ids: %v", err)
	}
}

// TestReorderRejectsUnknownMode pins the construction-time error.
func TestReorderRejectsUnknownMode(t *testing.T) {
	g := engineTestGraph(t)
	if _, err := NewEngine(g, BFSWL, Options{Workers: 2, Reorder: "sorted-by-vibes"}); err == nil {
		t.Fatal("unknown reorder mode accepted")
	}
}

// TestBatchedPublicationUnderRace is the -race regression the batching
// work requires: tiny publication blocks (maximum flush traffic) with
// the level timeline and dispatch tracing enabled concurrently, across
// the lockfree families, with concurrent engines in flight so the race
// detector sees batched flushes, steals, timeline sweeps, and trace
// appends interleaved.
func TestBatchedPublicationUnderRace(t *testing.T) {
	g := engineTestGraph(t)
	want := graph.ReferenceBFS(g, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for _, algo := range []Algorithm{BFSCL, BFSWL, BFSWSL, BFSEL} {
		for _, block := range []int{1, 2, 64} {
			wg.Add(1)
			go func(algo Algorithm, block int) {
				defer wg.Done()
				e, err := NewEngine(g, algo, Options{
					Workers: 4, Seed: uint64(block), PublishBlock: block,
					LevelTimeline: true, TraceCapacity: 512,
					Phase2Stealing: true,
				})
				if err != nil {
					errs <- err
					return
				}
				defer e.Close()
				for i := 0; i < 3; i++ {
					res, err := e.Run(0)
					if err != nil {
						errs <- err
						return
					}
					if err := graph.EqualDistances(res.Dist, want); err != nil {
						errs <- err
						return
					}
				}
			}(algo, block)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
