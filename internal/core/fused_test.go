package core

import (
	"fmt"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// TestFusedDrainMultiWorker checks the fused lockfree drain
// (drainOwnLean) against the serial oracle at several worker counts.
// Only plain options reach that loop: a chaos hook, ParentClaim,
// TrackParents or sharding routes drainOwn to its general loop, so the
// chaos soak never covers it and this table is its oracle check. The
// RMAT graph has hubs above the scale-free threshold, so BFS_WSL
// defers vertices and runs phase 2; the path and the grid give long
// chains of small frontiers, where drains and steals are short.
// -short (the race run) keeps two worker counts. SegmentSize is not a
// dimension: it sizes only the centralized dispatch.
func TestFusedDrainMultiWorker(t *testing.T) {
	must := func(g *graph.CSR, err error) *graph.CSR {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"rmat", must(gen.Graph500RMAT(1<<12, 16<<12, 5, gen.Options{}))},
		{"path", must(gen.Path(1500))},
		{"grid", must(gen.Grid2D(48, 48, false))},
	}
	workers := []int{2, 3, 4, 8}
	if testing.Short() {
		workers = []int{2, 4}
	}
	var steals int64
	for _, gc := range graphs {
		for _, algo := range []Algorithm{BFSWL, BFSWSL} {
			for _, p := range workers {
				// PublishBlock 1 flushes every discovery from inside the
				// fused loop; 0 is the default block.
				for _, blk := range []int{0, 1} {
					name := fmt.Sprintf("%s/%s/p%d/blk%d", gc.name, algo, p, blk)
					res := checkRun(t, gc.g, 0, algo, Options{Workers: p, PublishBlock: blk, Seed: uint64(p)})
					steals += res.Counters.StealSuccess
					if gc.name == "rmat" && algo == BFSWSL &&
						(res.Counters.HotVertices == 0 || res.Counters.HotChunks == 0) {
						t.Fatalf("%s: hub deferral idle: %d hot vertices, %d phase-2 chunks",
							name, res.Counters.HotVertices, res.Counters.HotChunks)
					}
				}
			}
		}
	}
	if steals == 0 {
		t.Fatal("no row stole work: the fused drain's steal path went unexercised")
	}
}
