package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"optibfs/internal/core"
	"optibfs/internal/graph"
)

// A Guard over sharded backends must answer queries, recover from a
// worker panic via the ladder (rebuilding a sharded engine), and keep
// the fused batch path working alongside.
func TestGuardShardedBackend(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{
		Concurrency: 2,
		Options:     core.Options{Workers: 4, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	for i := 0; i < 4; i++ {
		ans, err := gd.Query(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Outcome != "ok" {
			t.Fatalf("outcome = %q, want ok", ans.Outcome)
		}
		checkAnswer(t, g, 0, core.Goal{}, ans)
	}
}

func TestGuardShardedRecoversFromPanic(t *testing.T) {
	g := testGraph(t)
	var fired int32
	hook := hookFunc(func(point core.ChaosPoint, worker int, value int64) {
		if point == core.ChaosStall && atomic.CompareAndSwapInt32(&fired, 0, 1) {
			panic("serve sharded test: injected panic")
		}
	})
	gd, err := New(g, Config{
		Concurrency: 1,
		Options:     core.Options{Workers: 4, Shards: 2, Chaos: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	ans, err := gd.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Outcome != "recovered" {
		t.Fatalf("outcome = %q, want recovered", ans.Outcome)
	}
	checkAnswer(t, g, 0, core.Goal{}, ans)
	// The rebuilt engine serves cleanly from here on.
	ans, err = gd.Query(context.Background(), 0)
	if err != nil || ans.Outcome != "ok" {
		t.Fatalf("post-recovery query: ans=%+v err=%v", ans, err)
	}
}

// Sharded batch mode: the solo slots run sharded engines while the
// fused admission queue still answers through the unsharded MS-BFS
// lane engine.
func TestGuardShardedWithBatch(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{
		Concurrency: 1,
		Options:     core.Options{Workers: 2, Shards: 2},
		Batch:       BatchConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	ans, err := gd.Query(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 5)
	if err := graph.EqualDistances(ans.Dist, want); err != nil {
		t.Fatal(err)
	}
}

// A shard count the graph cannot support must surface at construction,
// not at query time.
func TestGuardShardedTinyGraphClamped(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := New(g, Config{
		Concurrency: 1,
		Options:     core.Options{Workers: 2, Shards: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	ans, err := gd.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Dist[1] != 1 {
		t.Fatalf("dist[1] = %d, want 1", ans.Dist[1])
	}
	if errors.Is(err, ErrBadSource) {
		t.Fatal("unexpected bad-source error")
	}
}
