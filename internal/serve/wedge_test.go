package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/obs"
)

// TestWedgeRaceKeepsAnswer forces the exact window of the old
// runGuarded bug: the run completes after the parent has taken its
// ctx.Done() arm but before it is receiving on the grace select. With
// the unbuffered channel + send-with-default protocol the delivery hit
// default, the healthy engine was closed, and the parent burned the
// full Grace window into a spurious errWedged. The fixed protocol
// (awaitRun) parks the outcome in the buffered channel, so the
// parent's grace select receives it immediately: no wedged failure is
// counted, no engine is rebuilt, and the guard answers the next query
// first-try. The solo subtest drives a fleet slot, the fused one a
// two-lane batch on the fused engine; both share awaitRun.
//
// Determinism comes from two test seams: the chaos hook blocks every
// worker until the parent signals it has passed ctx.Done() (proceed),
// and the parent then blocks until the run goroutine's delivery
// attempt has fully landed (delivered).
func TestWedgeRaceKeepsAnswer(t *testing.T) {
	for _, fused := range []bool{false, true} {
		name := "solo"
		if fused {
			name = "fused"
		}
		t.Run(name, func(t *testing.T) { wedgeRace(t, fused) })
	}
}

func wedgeRace(t *testing.T, fused bool) {
	g := testGraph(t)
	proceed := make(chan struct{})
	delivered := make(chan struct{})
	var pOnce, dOnce sync.Once
	reg := obs.New()
	cfg := Config{
		Concurrency: 1,
		Registry:    reg,
		Deadline:    50 * time.Millisecond,
		Grace:       10 * time.Second, // must NOT be burned; guarded by elapsed check
		Batch:       BatchConfig{Enabled: fused, MaxLanes: 2, Window: time.Second},
		Options: core.Options{
			Workers: 2,
			// The run progresses only after `proceed`; that is not a
			// stall, so keep the watchdog out of the way.
			StallTimeout: time.Minute,
			Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
				if p == core.ChaosStall {
					select {
					case <-proceed:
					case <-time.After(5 * time.Second):
					}
				}
			}),
		},
	}
	gd, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	gd.testHookCtxExpired = func() {
		// The parent is now between its ctx.Done() arm and the grace
		// select. Release the run, then hold the parent here until the
		// run's delivery attempt has completed — the old code's lost
		// window, guaranteed hit.
		pOnce.Do(func() { close(proceed) })
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Error("run goroutine never delivered")
		}
	}
	gd.testHookDelivered = func() {
		dOnce.Do(func() { close(delivered) })
	}

	// The queries: one solo query, or two lanes queued behind a held
	// fleet so they fuse (MaxLanes 2 dispatches once both are seated).
	lanes := 1
	release := func() {}
	if fused {
		lanes = 2
		release = holdFleet(gd)
	}
	defer release()
	anss := make([]*Answer, lanes)
	errs := make([]error, lanes)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range anss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if fused {
				anss[i], errs[i] = gd.QueryFused(context.Background(), int32(i*5))
			} else {
				anss[i], errs[i] = gd.Query(context.Background(), 0)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := range anss {
		if !errors.Is(errs[i], context.DeadlineExceeded) {
			t.Fatalf("query %d: err = %v, want context.DeadlineExceeded", i, errs[i])
		}
		if anss[i] == nil {
			t.Fatalf("query %d: completed run's answer was lost (nil partial)", i)
		}
		if anss[i].Fused != fused {
			t.Fatalf("query %d: fused = %v, want %v", i, anss[i].Fused, fused)
		}
	}
	if elapsed >= cfg.Grace {
		t.Fatalf("query took %v: the grace window was burned", elapsed)
	}
	for _, kind := range []string{"optibfs_serve_failures_total", "optibfs_serve_fused_failures_total"} {
		if n := reg.Counter(kind, obs.L("kind", "wedged")).Value(); n != 0 {
			t.Fatalf("%s{wedged} = %d, want 0 (spurious wedge)", kind, n)
		}
	}
	if n := reg.Counter("optibfs_serve_engine_rebuilds_total").Value(); n != 0 {
		t.Fatalf("rebuilds = %d, want 0 (healthy engine was torn down)", n)
	}
	if n := gd.Abandoned(); n != 0 {
		t.Fatalf("abandoned engines = %d, want 0", n)
	}
	release()

	// The same engine must answer the next query first-try.
	ans, err := gd.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Outcome != "ok" {
		t.Fatalf("follow-up outcome = %q, want ok", ans.Outcome)
	}
	checkAnswer(t, g, 0, core.Goal{}, ans)
}

// TestCloseIdempotent: double and concurrent Close must not panic or
// double-drain; queries after any Close fail with ErrClosed.
func TestCloseIdempotent(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gd.Close()
		}()
	}
	wg.Wait()
	gd.Close() // and once more, sequentially
	if _, err := gd.Query(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: got %v, want ErrClosed", err)
	}
}
