package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// TestFusedDrainMultiWorker checks the one lockfree work-stealing drain
// (drainOwnLean) and the adjacency claim (scanNeighbors) against the
// serial oracle at several worker counts, with and without parent
// tracking and the ParentClaim filter. Every lockfree run takes these
// loops, chaos soak runs included; this table is their deterministic
// oracle check, and with TrackParents the audit also validates every
// parent the inline claims stored. The RMAT graph has hubs above the
// scale-free threshold, so BFS_WSL defers vertices and runs phase 2;
// the path and the grid give long chains of small frontiers, where
// drains and steals are short. BFS_CL and BFS_DL reach scanNeighbors
// through exploreVertex. The hooked rows install a counting no-op hook
// and check that the drain fired both of its chaos points. -short (the
// race run) keeps two worker counts. SegmentSize is not a dimension: it
// sizes only the centralized dispatch.
func TestFusedDrainMultiWorker(t *testing.T) {
	must := func(g *graph.CSR, err error) *graph.CSR {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	scale, pathLen, side := 12, int32(1500), int32(48)
	workers := []int{2, 3, 4, 8}
	if testing.Short() {
		// CI repeats the -short table under the race detector, where
		// per-level barriers dominate: smaller graphs of the same
		// shapes keep that repeat cheap.
		scale, pathLen, side = 11, 300, 24
		workers = []int{2, 4}
	}
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"rmat", must(gen.Graph500RMAT(1<<scale, 16<<scale, 5, gen.Options{}))},
		{"path", must(gen.Path(pathLen))},
		{"grid", must(gen.Grid2D(side, side, false))},
	}
	rows := []struct {
		algo    Algorithm
		parents []bool
		claim   bool // ParentClaim
		hooked  bool // a counting no-op chaos hook
	}{
		{BFSWL, []bool{false, true}, false, false},
		{BFSWSL, []bool{false, true}, false, false},
		{BFSCL, []bool{true}, false, false},
		{BFSDL, []bool{true}, false, false},
		{BFSWL, []bool{false, true}, true, false},
		{BFSWSL, []bool{false, true}, true, false},
		{BFSCL, []bool{false, true}, true, false},
		{BFSWL, []bool{true}, false, true},
		{BFSWSL, []bool{true}, false, true},
	}
	var steals int64
	for _, gc := range graphs {
		for _, row := range rows {
			algo := row.algo
			for _, parents := range row.parents {
				for _, p := range workers {
					// PublishBlock 1 flushes every discovery from inside the
					// fused loop; 0 is the default block.
					for _, blk := range []int{0, 1} {
						name := fmt.Sprintf("%s/%s/p%d/blk%d/parents=%t/claim=%t/hooked=%t",
							gc.name, algo, p, blk, parents, row.claim, row.hooked)
						opt := Options{Workers: p, PublishBlock: blk, Seed: uint64(p),
							TrackParents: parents, ParentClaim: row.claim}
						var hook *countingHook
						if row.hooked {
							hook = &countingHook{}
							opt.Chaos = hook
						}
						res := checkRun(t, gc.g, 0, algo, opt)
						if hook != nil {
							for _, point := range []ChaosPoint{ChaosSlotZero, ChaosDrainAdvance} {
								if atomic.LoadInt64(&hook.fired[point]) == 0 {
									t.Fatalf("%s: chaos point %s never fired in the drain", name, point)
								}
							}
						}
						if parents && res.Parent == nil {
							t.Fatalf("%s: TrackParents run returned no parents", name)
						}
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
	}
	if steals == 0 {
		t.Fatal("no row stole work: the fused drain's steal path went unexercised")
	}
}
