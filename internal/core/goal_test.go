package core

import (
	"context"
	"fmt"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// goalExpectation derives, from the full serial oracle, where a
// goal-directed run must stop: the closed-level count and whether the
// run counts as truncated. Whichever goal fires first wins; a depth
// bound truncates only when a vertex at that depth exists, and a
// target only when it is reachable.
func goalExpectation(want []int32, goal Goal) (levels int32, truncated bool) {
	ecc := graph.Eccentricity(want)
	levels = ecc + 1
	if d := goal.MaxDepth; d > 0 && ecc >= d {
		levels = d
		truncated = true
	}
	if tv := goal.TargetVertex(); tv >= 0 && tv < int32(len(want)) {
		if dt := want[tv]; dt != graph.Unreached && dt < levels {
			levels = dt
			truncated = true
		}
	}
	return levels, truncated
}

// checkGoalResult verifies a goal-directed Result bit-for-bit against
// the serial oracle's closed levels: every vertex at oracle distance
// <= levels must hold exactly that distance (the final frontier is
// settled too), and everything deeper must read Unreached.
func checkGoalResult(t *testing.T, g *graph.CSR, src int32, goal Goal, res *Result) {
	t.Helper()
	want := graph.ReferenceBFS(g, src)
	wantLevels, wantTrunc := goalExpectation(want, goal)
	if res.Levels != wantLevels {
		t.Fatalf("goal %+v: Levels=%d, want %d", goal, res.Levels, wantLevels)
	}
	if res.Truncated != wantTrunc {
		t.Fatalf("goal %+v: Truncated=%v, want %v", goal, res.Truncated, wantTrunc)
	}
	for v := range res.Dist {
		if d := want[v]; d != graph.Unreached && d <= wantLevels {
			if res.Dist[v] != d {
				t.Fatalf("goal %+v: dist[%d]=%d, oracle %d (closed level)", goal, v, res.Dist[v], d)
			}
		} else if res.Dist[v] != graph.Unreached {
			t.Fatalf("goal %+v: dist[%d]=%d, want Unreached past level %d", goal, v, res.Dist[v], wantLevels)
		}
	}
	if res.Parent != nil {
		checkGoalParents(t, src, goal, res)
	}
	var sizes, settled int64
	for _, s := range res.LevelSizes {
		sizes += s
	}
	for _, d := range res.Dist {
		if d != graph.Unreached && d < res.Levels {
			settled++
		}
	}
	if sizes != settled {
		t.Fatalf("goal %+v: level sizes sum %d != closed-level vertices %d", goal, sizes, settled)
	}
}

// checkGoalParents validates the BFS-tree property over the settled
// prefix only — graph.ValidateParents expects a complete tree, which a
// truncated run deliberately does not have.
func checkGoalParents(t *testing.T, src int32, goal Goal, res *Result) {
	t.Helper()
	for v, p := range res.Parent {
		d := res.Dist[v]
		if d == graph.Unreached {
			if p != -1 {
				t.Fatalf("goal %+v: unreached %d has parent %d", goal, v, p)
			}
			continue
		}
		if int32(v) == src {
			if p != src {
				t.Fatalf("goal %+v: source parent %d", goal, p)
			}
			continue
		}
		if p < 0 || res.Dist[p] != d-1 {
			t.Fatalf("goal %+v: vertex %d at depth %d has parent %d at depth %d",
				goal, v, d, p, res.Dist[p])
		}
	}
}

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
						checkGoalResult(t, g, src, goal, res)
					}()
				}
				// The per-run override must not leak: an unbounded run
				// after a targeted one sees the whole graph again.
				res, err := be.RunContext(context.Background(), src)
				if err != nil {
					be.Close()
					t.Fatalf("%s: post-goal run: %v", name, err)
				}
				if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, src)); err != nil {
					be.Close()
					t.Fatalf("%s: goal leaked into later run: %v", name, err)
				}
				if res.Truncated {
					be.Close()
					t.Fatalf("%s: unbounded run marked truncated", name)
				}
				be.Close()
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

// Goal-directed persistent-worker engines exercise the runPool's
// advance/runSearch termination sites rather than runLevels'.
func TestGoalPersistentWorkers(t *testing.T) {
	g, err := gen.ChungLu(3000, 20000, 2.1, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, BFSWSL, Options{Workers: 4, PersistentWorkers: true, TrackParents: true})
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
			checkGoalResult(t, g, src, goal, res)
		}
	}
}
