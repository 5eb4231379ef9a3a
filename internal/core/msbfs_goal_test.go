package core

import (
	"context"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// soloGoalOracle runs the serial engine with the same goal and returns
// its Result — the reference every retired lane must demux exactly.
func soloGoalOracle(t *testing.T, g *graph.CSR, src int32, goal Goal) *Result {
	t.Helper()
	e, err := NewEngine(g, Serial, Options{TrackParents: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.RunGoal(context.Background(), src, goal)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkLaneGoal holds one lane of a goal-directed fused run to the
// answer tier of the audit contract and to its solo serial twin:
// identical distances everywhere and matching truncation verdicts.
func checkLaneGoal(t *testing.T, g *graph.CSR, lane int, goal Goal, lr *LaneResult, want *Result) {
	t.Helper()
	requireClean(t, AuditAnswer(g, lr.Src, nil, goal, lr.AsResult()), "lane %d goal %+v", lane, goal)
	if lr.Truncated != want.Truncated || lr.Levels != want.Levels {
		t.Fatalf("lane %d goal %+v: Levels=%d Truncated=%v, solo %d/%v",
			lane, goal, lr.Levels, lr.Truncated, want.Levels, want.Truncated)
	}
	if err := graph.EqualDistances(lr.Dist, want.Dist); err != nil {
		t.Fatalf("lane %d goal %+v: differs from solo: %v", lane, goal, err)
	}
}

// mixedGoals builds a deterministic mix of per-lane goals over the
// oracle's distance field: a quarter unbounded, a quarter depth-bound,
// the rest targeted at varying depths (some with a depth bound racing
// the target).
func mixedGoals(g *graph.CSR, sources []int32, seed uint64) []Goal {
	r := rng.NewXoshiro256(seed)
	goals := make([]Goal, len(sources))
	for i, src := range sources {
		want := graph.ReferenceBFS(g, src)
		ecc := graph.Eccentricity(want)
		switch i % 4 {
		case 0: // unbounded
		case 1:
			goals[i] = Goal{MaxDepth: 1 + int32(r.Uint64n(uint64(ecc+1)))}
		default:
			depth := int32(r.Uint64n(uint64(ecc + 1)))
			for v := int32(0); v < g.NumVertices(); v++ {
				if want[v] == depth {
					goals[i] = GoalTo(v)
					break
				}
			}
			if i%4 == 3 {
				goals[i].MaxDepth = 1 + int32(r.Uint64n(uint64(ecc+1)))
			}
		}
	}
	return goals
}

// TestMSLaneRetirementMatchesSolo is the per-lane retirement
// correctness matrix: goal-directed fused runs at several lane counts,
// every lane compared distance-for-distance against its solo serial
// goal run. Run under -race this also exercises the retirement path's
// claim that it adds no cross-thread state: the masks change only on
// the barrier goroutine.
func TestMSLaneRetirementMatchesSolo(t *testing.T) {
	g, err := gen.Graph500RMAT(2048, 16384, 99, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMSEngine(g, Options{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, lanes := range []int{1, 3, 17, 64} {
		sources := make([]int32, lanes)
		for i := range sources {
			sources[i] = int32(i*191) % g.NumVertices()
		}
		goals := mixedGoals(g, sources, uint64(lanes))
		res, err := e.RunGoals(context.Background(), sources, goals)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		for lane := range sources {
			want := soloGoalOracle(t, g, sources[lane], goals[lane])
			checkLaneGoal(t, g, lane, goals[lane], res.Lane(lane), want)
		}
	}
}

// A lane whose target equals its source must retire before the first
// level, and a fully retired batch must end the run with level 0.
func TestMSLaneRetireAtSeed(t *testing.T) {
	g, err := gen.Star(64)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMSEngine(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sources := []int32{0, 5, 9}
	goals := []Goal{GoalTo(0), GoalTo(5), GoalTo(9)}
	res, err := e.RunGoals(context.Background(), sources, goals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 0 {
		t.Fatalf("Levels=%d, want 0 (all lanes retired at seed)", res.Levels)
	}
	if res.EdgesScanned != 0 {
		t.Fatalf("EdgesScanned=%d, want 0", res.EdgesScanned)
	}
	for lane, src := range sources {
		lr := res.Lane(lane)
		if !lr.Truncated || lr.Dist[src] != 0 || lr.Reached != 1 {
			t.Fatalf("lane %d: truncated=%v dist=%d reached=%d", lane, lr.Truncated, lr.Dist[src], lr.Reached)
		}
	}
}

// Retirement must shrink the fused run's scanned-edge volume: the same
// 64 sources with mixed-depth targets must examine strictly fewer
// adjacency entries than the unbounded fused run, and nil goals must
// behave exactly like RunContext.
func TestMSLaneRetirementReducesWork(t *testing.T) {
	g, err := gen.Graph500RMAT(4096, 32768, 33, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewMSEngine(g, Options{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sources := make([]int32, MaxLanes)
	for i := range sources {
		sources[i] = int32(i*61) % g.NumVertices()
	}
	full, err := e.RunContext(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	fullScanned := full.EdgesScanned
	if fullScanned == 0 {
		t.Fatal("unbounded fused run scanned no edges")
	}
	// Shallow targets: every lane retires within a level or two.
	goals := make([]Goal, len(sources))
	for i, src := range sources {
		want := graph.ReferenceBFS(g, src)
		for v := int32(0); v < g.NumVertices(); v++ {
			if want[v] == 1 {
				goals[i] = GoalTo(v)
				break
			}
		}
	}
	bounded, err := e.RunGoals(context.Background(), sources, goals)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.EdgesScanned >= fullScanned {
		t.Fatalf("retirement did not reduce work: %d >= %d", bounded.EdgesScanned, fullScanned)
	}
}
