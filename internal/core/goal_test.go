package core

import (
	"context"
	"fmt"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// goalCases picks the interesting goals for one (graph, source) pair:
// the source itself, near/mid/far targets, an unreachable target when
// one exists, depth bounds straddling the eccentricity, and combined
// target+depth goals where each side wins.
func goalCases(g *graph.CSR, src int32) []Goal {
	want := graph.ReferenceBFS(g, src)
	ecc := graph.Eccentricity(want)
	cases := []Goal{
		{}, // unbounded: goal path must degrade to a plain run
		GoalTo(src),
		{MaxDepth: 1},
	}
	if ecc > 0 {
		cases = append(cases, Goal{MaxDepth: ecc}, Goal{MaxDepth: ecc + 3})
	}
	pick := func(depth int32) {
		for v := int32(0); v < g.NumVertices(); v++ {
			if want[v] == depth {
				cases = append(cases,
					GoalTo(v),
					Goal{Target: v + 1, MaxDepth: depth + 2}, // target wins
					Goal{Target: v + 1, MaxDepth: 1},         // depth wins (unless depth==1)
				)
				return
			}
		}
	}
	pick(ecc)
	pick(ecc / 2)
	for v := int32(0); v < g.NumVertices(); v++ {
		if want[v] == graph.Unreached {
			cases = append(cases, GoalTo(v)) // unreachable: full run, untruncated
			break
		}
	}
	return cases
}

// TestGoalDirectedMatrix is the tentpole correctness matrix: the four
// lockfree families × {plain, hybrid} × shard counts {1, 2, 4} ×
// reorder modes, every cell checked bit-for-bit against the serial
// oracle's closed levels over the goal cases above. The serial engine
// itself is a row too, pinning oracle/parallel truncation parity.
func TestGoalDirectedMatrix(t *testing.T) {
	graphs := testGraphs(t)
	families := []Algorithm{BFSC, BFSDL, BFSWSL, BFSEL}
	type cell struct {
		name string
		opt  Options
		algo Algorithm
	}
	cells := []cell{{"serial", Options{}, Serial}}
	for _, algo := range families {
		cells = append(cells,
			cell{string(algo), Options{Workers: 4, Seed: 1}, algo},
			cell{string(algo) + "/hybrid", Options{Workers: 4, Seed: 1, Hybrid: true}, algo},
		)
	}
	for _, shards := range []int{2, 4} {
		cells = append(cells,
			cell{fmt.Sprintf("BFS_WSL/shards%d", shards), Options{Workers: 2, Seed: 1, Shards: shards}, BFSWSL},
			cell{fmt.Sprintf("BFS_WSL/shards%d/hybrid", shards), Options{Workers: 2, Seed: 1, Shards: shards, Hybrid: true}, BFSWSL},
		)
	}
	for _, mode := range []ReorderMode{ReorderDegree, ReorderBFS} {
		cells = append(cells,
			cell{"BFS_WSL/reorder-" + string(mode), Options{Workers: 4, Seed: 1, Reorder: mode}, BFSWSL})
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for name, g := range graphs {
				opt := c.opt
				opt.TrackParents = true
				be, err := NewBackend(g, c.algo, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				src := int32(0)
				for _, goal := range goalCases(g, src) {
					res, err := be.RunGoal(context.Background(), src, goal)
					if err != nil {
						be.Close()
						t.Fatalf("%s goal %+v: %v", name, goal, err)
					}
					func() {
						defer func() {
							if t.Failed() {
								t.Logf("graph %s", name)
							}
						}()
						requireClean(t, Audit(g, src, nil, goal, res), "goal %+v", goal)
					}()
				}
				// The per-run override must not leak: an unbounded run
				// after a targeted one sees the whole graph again.
				res, err := be.RunContext(context.Background(), src)
				if err != nil {
					be.Close()
					t.Fatalf("%s: post-goal run: %v", name, err)
				}
				vs := Audit(g, src, nil, Goal{}, res)
				be.Close()
				requireClean(t, vs, "%s: goal leaked into later run", name)
			}
		})
	}
}

func TestGoalValidation(t *testing.T) {
	g, err := gen.Path(16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, BFSWL, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunGoal(context.Background(), 0, GoalTo(99)); err == nil {
		t.Fatal("out-of-range RunGoal target accepted")
	}
	if _, err := e.RunGoal(context.Background(), 0, Goal{Target: -1}); err == nil {
		t.Fatal("negative RunGoal target encoding accepted")
	}
	if _, err := e.RunGoal(context.Background(), 0, Goal{MaxDepth: -2}); err == nil {
		t.Fatal("negative RunGoal depth accepted")
	}
	// Vertex 0 must be addressable as a target (the +1 encoding's
	// entire point).
	res, err := e.RunGoal(context.Background(), 5, GoalTo(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Dist[0] != 5 {
		t.Fatalf("target vertex 0: Truncated=%v dist=%d, want true/5", res.Truncated, res.Dist[0])
	}
}

// A warm engine serves many goal-directed runs in a row: each stops at
// runLevels' single termination check with the crew parked in between.
func TestGoalPersistentWorkers(t *testing.T) {
	g, err := gen.ChungLu(3000, 20000, 2.1, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, BFSWSL, Options{Workers: 4, TrackParents: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 8; i++ {
		src := int32(i*311) % g.NumVertices()
		for _, goal := range goalCases(g, src) {
			res, err := e.RunGoal(context.Background(), src, goal)
			if err != nil {
				t.Fatalf("src %d goal %+v: %v", src, goal, err)
			}
			requireClean(t, Audit(g, src, nil, goal, res), "src %d goal %+v", src, goal)
		}
	}
}
