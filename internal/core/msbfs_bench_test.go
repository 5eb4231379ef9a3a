package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

var (
	rmat18Once sync.Once
	rmat18G    *graph.CSR
	rmat18Err  error
)

// rmat18 builds (once) the Graph500 scale-18 benchmark graph:
// 2^18 vertices, edgefactor 16.
func rmat18(b *testing.B) *graph.CSR {
	b.Helper()
	rmat18Once.Do(func() {
		rmat18G, rmat18Err = gen.Graph500RMAT(1<<18, 16<<18, 42, gen.Options{})
	})
	if rmat18Err != nil {
		b.Fatal(rmat18Err)
	}
	return rmat18G
}

// BenchmarkMSGoalRetirement quantifies what per-lane retirement saves
// on a full 64-lane fused run: every lane gets an s-t goal at a
// mid-depth target (picked from a serial reference run, the same
// convention as the harness GoalTable), and the retired row re-runs
// the identical sources with those goals while the unbounded row runs
// to exhaustion. Medges/op is the fused expansion's total adjacency
// scans per run — the direct measure of the edges retirement avoids —
// so the retired/unbounded ratio is the headline number recorded in
// EXPERIMENTS.md ("Goal-directed traversal").
func BenchmarkMSGoalRetirement(b *testing.B) {
	g := rmat18(b)
	srcs := make([]int32, MaxLanes)
	for i := range srcs {
		srcs[i] = int32((i*2654435761 + 12345) % int(g.NumVertices()))
	}
	goals := make([]Goal, MaxLanes)
	for i, src := range srcs {
		want := graph.ReferenceBFS(g, src)
		var ecc int32
		for _, d := range want {
			if d != graph.Unreached && d > ecc {
				ecc = d
			}
		}
		depth := ecc / 2
		if depth < 1 {
			depth = 1
		}
		goals[i] = GoalTo(src) // fallback: retire at seed
		for v := int32(0); v < g.NumVertices(); v++ {
			if want[v] == depth {
				goals[i] = GoalTo(v)
				break
			}
		}
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		goals []Goal
	}{{"unbounded", nil}, {"retired", goals}} {
		b.Run(tc.name, func(b *testing.B) {
			eng, err := NewMSEngine(g, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.RunGoals(ctx, srcs, tc.goals); err != nil { // warm the pools
				b.Fatal(err)
			}
			var edges int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.RunGoals(ctx, srcs, tc.goals)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.EdgesScanned
			}
			b.StopTimer()
			b.ReportMetric(float64(edges)/float64(b.N)/1e6, "Medges/op")
			b.ReportMetric(float64(MaxLanes*b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
}

// BenchmarkAggregateQPS compares per-query dispatch (one warm solo
// engine answering K sources back to back — what the serve layer did
// before fusion) against one fused MS-BFS run packing the same K
// sources into lane masks. The reported "qps" metric is aggregate
// queries per second: K×iters / elapsed.
func BenchmarkAggregateQPS(b *testing.B) {
	g := rmat18(b)
	for _, k := range []int{1, 8, 64} {
		srcs := make([]int32, k)
		for i := range srcs {
			srcs[i] = int32((i*2654435761 + 12345) % int(g.NumVertices()))
		}
		b.Run(fmt.Sprintf("solo/sources=%d", k), func(b *testing.B) {
			eng, err := NewEngine(g, BFSWL, Options{TrackParents: true})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Run(srcs[0]); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range srcs {
					if _, err := eng.Run(s); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "qps")
		})
		b.Run(fmt.Sprintf("fused/sources=%d", k), func(b *testing.B) {
			eng, err := NewMSEngine(g, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Run(srcs); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(srcs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
}
