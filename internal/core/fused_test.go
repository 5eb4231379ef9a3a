package core

import (
	"fmt"
	"testing"
	"time"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// TestFusedDrainMultiWorker checks the fused lockfree drain
// (drainOwnLean) and the lean scan (scanNeighborsLean) against the
// serial oracle at several worker counts, with and without parent
// tracking. Only states that pass lean() reach those loops — a chaos
// hook or ParentClaim routes them to the general loop — so
// the chaos soak never covers them and this table is their oracle
// check; with TrackParents the audit also validates every parent the
// inline claims stored. The RMAT graph has hubs above the scale-free
// threshold, so BFS_WSL defers vertices and runs phase 2; the path and
// the grid give long chains of small frontiers, where drains and
// steals are short. BFS_CL and BFS_DL reach scanNeighborsLean through
// exploreVertex; their rows track parents. -short (the race run) keeps
// two worker counts. SegmentSize is not a dimension: it sizes only the
// centralized dispatch.
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
	rows := []struct {
		algo    Algorithm
		parents []bool
	}{
		{BFSWL, []bool{false, true}},
		{BFSWSL, []bool{false, true}},
		{BFSCL, []bool{true}},
		{BFSDL, []bool{true}},
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
						name := fmt.Sprintf("%s/%s/p%d/blk%d/parents=%t", gc.name, algo, p, blk, parents)
						opt := Options{Workers: p, PublishBlock: blk, Seed: uint64(p), TrackParents: parents}
						res := checkRun(t, gc.g, 0, algo, opt)
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

// TestLeanRoute pins which engine configurations run the inline claim.
// The options every serving Guard builds (TrackParents, a 1 s stall
// watchdog) must take the lean path; a chaos hook or ParentClaim must
// not, because only discover carries them.
func TestLeanRoute(t *testing.T) {
	g, err := gen.Graph500RMAT(1<<10, 8<<10, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	guard := Options{Workers: 2, TrackParents: true, StallTimeout: time.Second}
	for _, tc := range []struct {
		name string
		opt  func(Options) Options
		lean bool
	}{
		{"guard", func(o Options) Options { return o }, true},
		{"guard/1-shard", func(o Options) Options { o.Shards = 1; return o }, true},
		{"plain", func(Options) Options { return Options{Workers: 2} }, true},
		{"chaos", func(o Options) Options { o.Chaos = &countingHook{}; return o }, false},
		{"parent-claim", func(o Options) Options { o.ParentClaim = true; return o }, false},
	} {
		for _, algo := range []Algorithm{BFSWL, BFSWSL} {
			e, err := NewEngine(g, algo, tc.opt(guard))
			if err != nil {
				t.Fatal(err)
			}
			if got := e.impl.(*parEngine).st.lean(); got != tc.lean {
				t.Errorf("%s/%s: lean() = %t, want %t", tc.name, algo, got, tc.lean)
			}
			e.Close()
		}
	}
}
