package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/graph"
	"optibfs/internal/obs"
)

// TestQueryGoal runs target, depth-bound, and combined goals through
// solo Guards — plain and sharded — and checks the truncated answers
// bit-for-bit against the oracle's closed levels.
func TestQueryGoal(t *testing.T) {
	g := testGraph(t)
	want := graph.ReferenceBFS(g, 0)
	ecc := graph.Eccentricity(want)
	var far int32 = -1
	for v := int32(0); v < g.NumVertices(); v++ {
		if want[v] == ecc {
			far = v
			break
		}
	}
	if far < 0 {
		t.Fatal("no vertex at eccentricity")
	}
	goals := []core.Goal{
		{},
		core.GoalTo(0),
		core.GoalTo(far),
		{MaxDepth: 1},
		{MaxDepth: ecc + 5},
		{Target: far + 1, MaxDepth: 1},
	}
	for _, shards := range []int{0, 2} {
		gd, err := New(g, Config{Concurrency: 1, Options: core.Options{Workers: 2, Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		for _, goal := range goals {
			ans, err := gd.QueryGoal(context.Background(), 0, goal)
			if err != nil {
				gd.Close()
				t.Fatalf("shards=%d goal %+v: %v", shards, goal, err)
			}
			if ans.Outcome != "ok" {
				gd.Close()
				t.Fatalf("shards=%d goal %+v: outcome %q", shards, goal, ans.Outcome)
			}
			checkAnswer(t, g, 0, goal, ans)
		}
		// The goal must not leak into the next unbounded query.
		ans, err := gd.Query(context.Background(), 0)
		if err != nil {
			gd.Close()
			t.Fatal(err)
		}
		if ans.Truncated {
			gd.Close()
			t.Fatal("unbounded query after goals marked truncated")
		}
		checkAnswer(t, g, 0, core.Goal{}, ans)
		gd.Close()
	}
}

func TestQueryGoalValidation(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	cases := []core.Goal{
		core.GoalTo(g.NumVertices()),
		{Target: -3},
		{MaxDepth: -1},
	}
	for _, goal := range cases {
		if _, err := gd.QueryGoal(context.Background(), 0, goal); !errors.Is(err, ErrBadGoal) {
			t.Fatalf("goal %+v: err = %v, want ErrBadGoal", goal, err)
		}
		if _, err := gd.QueryFusedGoal(context.Background(), 0, goal); !errors.Is(err, ErrBadGoal) {
			t.Fatalf("fused goal %+v: err = %v, want ErrBadGoal", goal, err)
		}
	}
}

// TestQueryGoalDegraded: after the parallel engine fails twice, the
// serial fallback must honor the same goal — a degraded s–t answer is
// still truncated and exact.
func TestQueryGoalDegraded(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	gd, err := New(g, Config{
		Concurrency: 1,
		Registry:    reg,
		Options: core.Options{Workers: 2, Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
			if p == core.ChaosStall {
				panic("goal test: injected panic")
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	goal := core.Goal{MaxDepth: 2}
	ans, err := gd.QueryGoal(context.Background(), 0, goal)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Outcome != "degraded" || ans.Algorithm != core.Serial {
		t.Fatalf("outcome %q algorithm %q, want degraded serial", ans.Outcome, ans.Algorithm)
	}
	checkAnswer(t, g, 0, goal, ans)
}

// TestFusedSingleLaneSoloDispatch is the regression pin for the 1-lane
// fused-batch slowdown: a window that collects exactly one live lane
// must bypass the MS-BFS engine and run on the solo fleet. The fleet
// is held busy until the dispatch so the query queues for a window
// instead of taking the idle-fleet bypass.
func TestFusedSingleLaneSoloDispatch(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	gd, err := New(g, Config{
		Concurrency: 1,
		Registry:    reg,
		Batch:       BatchConfig{Enabled: true, Window: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	release := holdFleet(gd)
	defer release()
	var ans *Answer
	done := make(chan struct{})
	go func() {
		defer close(done)
		ans, err = gd.QueryFused(context.Background(), 0)
	}()
	waitCount(t, reg.Counter("optibfs_serve_fused_solo_dispatch_total"), 1)
	release()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if ans.Fused {
		t.Fatal("singleton batch still ran through the fused engine")
	}
	if ans.Algorithm != gd.Algorithm() {
		t.Fatalf("algorithm %q, want solo %q", ans.Algorithm, gd.Algorithm())
	}
	if ans.Outcome != "ok" {
		t.Fatalf("outcome %q, want ok", ans.Outcome)
	}
	if ans.BatchLanes != 1 {
		t.Fatalf("BatchLanes = %d, want 1", ans.BatchLanes)
	}
	checkAnswer(t, g, 0, core.Goal{}, ans)
	if n := reg.Counter("optibfs_serve_fused_solo_dispatch_total").Value(); n != 1 {
		t.Fatalf("solo dispatches = %d, want 1", n)
	}
	if n := reg.Counter("optibfs_serve_fused_batches_total").Value(); n != 1 {
		t.Fatalf("batches = %d, want 1 (singleton still counts as a batch)", n)
	}
	if n := reg.Counter("optibfs_serve_requests_total", obs.L("outcome", "ok")).Value(); n != 1 {
		t.Fatalf("ok requests = %d, want 1 (double count?)", n)
	}
}

// TestQueryFusedGoal: per-lane goals ride the fused batch; each lane
// demuxes its own exact truncated answer while unbounded lanes in the
// same batch still see the whole graph.
func TestQueryFusedGoal(t *testing.T) {
	g := testGraph(t)
	want := graph.ReferenceBFS(g, 0)
	var near int32 = -1
	for v := int32(0); v < g.NumVertices(); v++ {
		if want[v] == 1 {
			near = v
			break
		}
	}
	if near < 0 {
		t.Fatal("no depth-1 vertex")
	}
	gd, err := New(g, Config{
		Concurrency: 1,
		Batch:       BatchConfig{Enabled: true, Window: 200 * time.Millisecond, MaxLanes: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	defer holdFleet(gd)()

	goals := []core.Goal{{}, core.GoalTo(near), {MaxDepth: 2}}
	srcs := []int32{0, 0, 17}
	anss := make([]*Answer, len(goals))
	errs := make([]error, len(goals))
	var fusedLanes atomic.Int32
	var wg sync.WaitGroup
	for i := range goals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			anss[i], errs[i] = gd.QueryFusedGoal(context.Background(), srcs[i], goals[i])
		}(i)
	}
	wg.Wait()
	for i := range goals {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if anss[i].Fused {
			fusedLanes.Add(1)
		}
		checkAnswer(t, g, srcs[i], goals[i], anss[i])
	}
	// All three seated in one window (MaxLanes 3 forces dispatch when
	// full); a partial window would still be correct but wouldn't
	// exercise mixed-goal demux, so require at least two fused lanes.
	if fusedLanes.Load() < 2 {
		t.Fatalf("only %d fused lanes; batch did not form", fusedLanes.Load())
	}
}
