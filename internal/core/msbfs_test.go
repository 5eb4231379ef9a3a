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
// audit contract against the oracle distances want (nil computes
// them). Fused lanes always track parents.
func checkLane(t testing.TB, g *graph.CSR, want []int32, lr *LaneResult) {
	t.Helper()
	if lr.Parent == nil {
		t.Fatalf("lane src=%d: no parents", lr.Src)
	}
	requireClean(t, AuditAnswer(g, lr.Src, want, Goal{}, lr.AsResult()), "lane src=%d", lr.Src)
}

func TestMSBFSSourceValidation(t *testing.T) {
	g := matrixGraph(t, "er")
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
	checkLane(t, g, nil, res.Lane(0))
	checkLane(t, g, nil, res.Lane(1))
}

// TestMSBFSCancelPartial cancels a fused run mid-traversal: the error
// is ctx's, every settled per-lane distance matches the oracle, and
// the engine stays reusable.
func TestMSBFSCancelPartial(t *testing.T) {
	g := matrixGraph(t, "layered") // deep enough for many levels
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
		checkLane(t, g, nil, res.Lane(i))
	}
}

// TestMSBFSPanicPoisons injects one worker panic: the run must return
// a *WorkerPanicError with partial lanes instead of crashing, and the
// engine must refuse reuse with ErrPoisoned.
func TestMSBFSPanicPoisons(t *testing.T) {
	g := matrixGraph(t, "er")
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
	g := matrixGraph(t, "two")
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
