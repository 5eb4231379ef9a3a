package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"optibfs/internal/graph"
)

// msHook adapts a function to ChaosHook for the fused-engine tests.
type msHook func(point ChaosPoint, worker int, value int64)

func (f msHook) At(point ChaosPoint, worker int, value int64) { f(point, worker, value) }

// checkLane holds one lane of a fused run to the answer tier of the
// audit contract. Fused lanes always track parents.
func checkLane(t *testing.T, g *graph.CSR, lr *LaneResult) {
	t.Helper()
	if lr.Parent == nil {
		t.Fatalf("lane src=%d: no parents", lr.Src)
	}
	requireClean(t, AuditAnswer(g, lr.Src, nil, Goal{}, lr.AsResult()), "lane src=%d", lr.Src)
}

// laneSources spreads k sources over g, with deliberate duplicates
// once k exceeds the vertex count or 8 (two lanes sharing a source is
// a case the mask merge must handle).
func laneSources(g *graph.CSR, k int) []int32 {
	n := g.NumVertices()
	srcs := make([]int32, k)
	for i := range srcs {
		srcs[i] = int32(i*7) % n
	}
	if k > 8 {
		srcs[k-1] = srcs[0] // forced duplicate source
	}
	return srcs
}

func TestMSBFSMatchesOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, workers := range []int{1, 3, 8} {
			for _, lanes := range []int{1, 8, 64} {
				e, err := NewMSEngine(g, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				srcs := laneSources(g, lanes)
				res, err := e.Run(srcs)
				if err != nil {
					t.Fatalf("%s workers=%d lanes=%d: %v", name, workers, lanes, err)
				}
				if res.Lanes != lanes {
					t.Fatalf("%s: Lanes=%d, want %d", name, res.Lanes, lanes)
				}
				for i := 0; i < lanes; i++ {
					checkLane(t, g, res.Lane(i))
				}
				e.Close()
			}
		}
	}
}

// TestMSBFSEngineReuse runs a warm engine across shrinking and growing
// lane counts: epoch invalidation and the lane-major pooling must keep
// every run's views exact.
func TestMSBFSEngineReuse(t *testing.T) {
	g := testGraphs(t)["rmat"]
	e, err := NewMSEngine(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, lanes := range []int{64, 3, 17, 64, 1} {
		srcs := laneSources(g, lanes)
		res, err := e.Run(srcs)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		for i := 0; i < lanes; i++ {
			checkLane(t, g, res.Lane(i))
		}
	}
}

func TestMSBFSSourceValidation(t *testing.T) {
	g := testGraphs(t)["er"]
	e, err := NewMSEngine(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(nil); err == nil {
		t.Fatal("0 sources accepted")
	}
	if _, err := e.Run(make([]int32, MaxLanes+1)); err == nil {
		t.Fatal("65 sources accepted")
	}
	if _, err := e.Run([]int32{-1}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := e.Run([]int32{g.NumVertices()}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	// A failed validation must not poison the engine.
	res, err := e.Run([]int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkLane(t, g, res.Lane(0))
	checkLane(t, g, res.Lane(1))
}

// TestMSBFSCancelPartial cancels a fused run mid-traversal: the error
// is ctx's, every settled per-lane distance matches the oracle, and
// the engine stays reusable.
func TestMSBFSCancelPartial(t *testing.T) {
	g := testGraphs(t)["layered"] // deep enough for many levels
	var levels int32
	ctx, cancel := context.WithCancel(context.Background())
	hook := msHook(func(p ChaosPoint, _ int, _ int64) {
		if p == ChaosStall {
			if atomic.AddInt32(&levels, 1) == 6 {
				cancel()
			}
		}
	})
	e, err := NewMSEngine(g, Options{Workers: 2, Chaos: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srcs := laneSources(g, 16)
	res, err := e.RunContext(ctx, srcs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	for i := range srcs {
		lr := res.Lane(i)
		want := graph.ReferenceBFS(g, lr.Src)
		var settled int64
		for v := range lr.Dist {
			if lr.Dist[v] == graph.Unreached {
				continue
			}
			settled++
			if lr.Dist[v] != want[v] {
				t.Fatalf("lane %d: partial dist[%d]=%d, want %d", i, v, lr.Dist[v], want[v])
			}
		}
		if settled != lr.Reached {
			t.Fatalf("lane %d: Reached=%d but %d settled", i, lr.Reached, settled)
		}
	}
	// The engine must be fully reusable after a cooperative abort.
	e.SetChaos(nil)
	res, err = e.Run(srcs[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		checkLane(t, g, res.Lane(i))
	}
}

// TestMSBFSPanicPoisons injects one worker panic: the run must return
// a *WorkerPanicError with partial lanes instead of crashing, and the
// engine must refuse reuse with ErrPoisoned.
func TestMSBFSPanicPoisons(t *testing.T) {
	g := testGraphs(t)["er"]
	var fired int32
	hook := msHook(func(p ChaosPoint, _ int, _ int64) {
		if p == ChaosStall && atomic.CompareAndSwapInt32(&fired, 0, 1) {
			panic("msbfs test: injected panic")
		}
	})
	e, err := NewMSEngine(g, Options{Workers: 4, Chaos: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(laneSources(g, 8))
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *WorkerPanicError", err)
	}
	if wp.Algo != MSBFSL {
		t.Fatalf("panic algo = %q, want %q", wp.Algo, MSBFSL)
	}
	if res == nil {
		t.Fatal("panicked run returned no partial result")
	}
	if _, err := e.Run([]int32{0}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("reuse after panic: err = %v, want ErrPoisoned", err)
	}
}

// TestMSBFSClosed: a closed engine refuses runs.
func TestMSBFSClosed(t *testing.T) {
	g := testGraphs(t)["two"]
	e, err := NewMSEngine(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Run([]int32{0}); err == nil {
		t.Fatal("closed engine accepted a run")
	}
}
