package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/graph"
	"optibfs/internal/obs"
)

// holdFleet takes every solo slot so QueryFused finds the fleet busy
// and must queue for fusion instead of taking the idle-fleet bypass.
// The returned release puts the slots back; it is idempotent and must
// run before gd.Close, which waits for every slot.
func holdFleet(gd *Guard) (release func()) {
	held := make([]*slot, 0, gd.cfg.Concurrency)
	for i := 0; i < gd.cfg.Concurrency; i++ {
		held = append(held, <-gd.slots)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, s := range held {
				gd.slots <- s
			}
		})
	}
}

// waitCount yields until c reaches want: the ordering signal for
// tests that must release a held fleet only after the dispatcher has
// acted. It never sleeps; the bound only turns a hang into a failure.
func waitCount(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Value(), want)
		}
		runtime.Gosched()
	}
}

// TestFusedBatchOK: concurrent QueryFused calls against a busy fleet
// land in one fused run, every lane demuxes to a correct per-source
// answer, and the batch metrics record the occupancy.
func TestFusedBatchOK(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	gd, err := New(g, Config{
		Concurrency: 1,
		Registry:    reg,
		Batch:       BatchConfig{Enabled: true, Window: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	defer holdFleet(gd)()

	const lanes = 8
	anss := make([]*Answer, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			anss[i], errs[i] = gd.QueryFused(context.Background(), int32(i*13))
		}(i)
	}
	wg.Wait()
	for i := 0; i < lanes; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if anss[i].Outcome != "ok" {
			t.Fatalf("lane %d: outcome %q, want ok", i, anss[i].Outcome)
		}
		if !anss[i].Fused {
			t.Fatalf("lane %d: answer not marked fused", i)
		}
		if anss[i].Algorithm != core.MSBFSL {
			t.Fatalf("lane %d: algorithm %q, want %q", i, anss[i].Algorithm, core.MSBFSL)
		}
		checkAnswer(t, g, int32(i*13), core.Goal{}, anss[i])
	}
	if n := reg.Counter("optibfs_serve_fused_lanes_total").Value(); n != lanes {
		t.Fatalf("fused lanes counted = %d, want %d", n, lanes)
	}
	if n := reg.Counter("optibfs_serve_fused_batches_total").Value(); n != 1 {
		t.Fatalf("fused batches = %d, want 1 (collection window missed lanes)", n)
	}
	if n := reg.Histogram("optibfs_serve_batch_lanes",
		[]float64{1, 2, 4, 8, 16, 32, 48, 64}).Count(); n != 1 {
		t.Fatalf("occupancy observations = %d, want 1", n)
	}
	if n := reg.Counter("optibfs_serve_requests_total", obs.L("outcome", "ok")).Value(); n != lanes {
		t.Fatalf("ok requests counted = %d, want %d", n, lanes)
	}
}

// TestFusedCanceledLaneMasked: a lane whose caller has already gone is
// masked out of the batch instead of aborting it — the surviving lane
// still answers ok. With one survivor the batch collapses to a
// singleton and dispatches through the solo fleet (see soloDispatch),
// so the answer is not marked fused. The fleet is held busy until that
// dispatch so neither caller takes the idle-fleet bypass.
func TestFusedCanceledLaneMasked(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	gd, err := New(g, Config{
		Concurrency: 1,
		Registry:    reg,
		Batch:       BatchConfig{Enabled: true, Window: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	release := holdFleet(gd)
	defer release()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	var liveAns *Answer
	var liveErr, deadErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, deadErr = gd.QueryFused(dead, 7)
	}()
	go func() {
		defer wg.Done()
		liveAns, liveErr = gd.QueryFused(context.Background(), 0)
	}()
	waitCount(t, reg.Counter("optibfs_serve_fused_solo_dispatch_total"), 1)
	release()
	wg.Wait()
	if !errors.Is(deadErr, context.Canceled) {
		t.Fatalf("canceled lane: err = %v, want context.Canceled", deadErr)
	}
	if liveErr != nil {
		t.Fatal(liveErr)
	}
	if liveAns.Outcome != "ok" || liveAns.Fused {
		t.Fatalf("surviving lane: outcome %q fused=%v, want ok solo-dispatched", liveAns.Outcome, liveAns.Fused)
	}
	if liveAns.BatchLanes != 1 {
		t.Fatalf("surviving lane ran with %d live lanes, want 1 (dead lane not masked)", liveAns.BatchLanes)
	}
	if n := reg.Counter("optibfs_serve_fused_solo_dispatch_total").Value(); n != 1 {
		t.Fatalf("solo dispatches = %d, want 1", n)
	}
	checkAnswer(t, g, 0, core.Goal{}, liveAns)
}

// TestFusedEngineFailureRerunsSolo: an engine failure inside the fused
// run — a worker panic, or a stall past StallTimeout that the fused
// watchdog turns into a typed *StallError — fails the whole batch;
// every surviving lane is re-run solo through the ladder and still
// answers correctly, well before its deadline and without abandoning
// any engine as wedged. The fleet is held busy so both lanes queue for
// fusion; the first hook firing, which is necessarily in the fused
// run, hands the slots back for the re-runs.
func TestFusedEngineFailureRerunsSolo(t *testing.T) {
	for _, kind := range []string{"panic", "stall"} {
		t.Run(kind, func(t *testing.T) {
			g := testGraph(t)
			var fired int32
			var release func()
			reg := obs.New()
			const deadline = 20 * time.Second
			gd, err := New(g, Config{
				Concurrency: 1,
				Registry:    reg,
				Deadline:    deadline,
				Batch:       BatchConfig{Enabled: true, Window: 150 * time.Millisecond},
				Options: core.Options{Workers: 2, StallTimeout: 100 * time.Millisecond,
					Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
						if p == core.ChaosStall && atomic.CompareAndSwapInt32(&fired, 0, 1) {
							release()
							if kind == "panic" {
								panic("batch test: injected fused panic")
							}
							time.Sleep(time.Second)
						}
					})},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer gd.Close()
			release = holdFleet(gd)
			defer release()

			const lanes = 2
			anss := make([]*Answer, lanes)
			errs := make([]error, lanes)
			var wg sync.WaitGroup
			start := time.Now()
			for i := 0; i < lanes; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					anss[i], errs[i] = gd.QueryFused(context.Background(), int32(i*11))
				}(i)
			}
			wg.Wait()
			if elapsed := time.Since(start); elapsed >= deadline/4 {
				t.Fatalf("lanes answered after %s: the failed batch was not re-run well before its %s deadline", elapsed, deadline)
			}
			for i := 0; i < lanes; i++ {
				if errs[i] != nil {
					t.Fatalf("lane %d: %v", i, errs[i])
				}
				if anss[i].Fused {
					t.Fatalf("lane %d: solo re-run still marked fused", i)
				}
				checkAnswer(t, g, int32(i*11), core.Goal{}, anss[i])
			}
			if n := reg.Counter("optibfs_serve_fused_failures_total", obs.L("kind", kind)).Value(); n != 1 {
				t.Fatalf("fused %s failures = %d, want 1", kind, n)
			}
			if n := reg.Counter("optibfs_serve_fused_solo_reruns_total").Value(); n != lanes {
				t.Fatalf("solo reruns = %d, want %d", n, lanes)
			}
			if n := gd.Abandoned(); n != 0 {
				t.Fatalf("abandoned engines = %d, want 0", n)
			}
		})
	}
}

// TestFusedPartialOnDeadline: a fused run aborted by its batch
// deadline demuxes a per-lane partial answer alongside the error.
func TestFusedPartialOnDeadline(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	gd, err := New(g, Config{
		Concurrency: 1,
		Registry:    reg,
		Grace:       5 * time.Second,
		Batch:       BatchConfig{Enabled: true, Window: 200 * time.Millisecond, MaxLanes: 2},
		Options: core.Options{
			Workers:      2,
			StallTimeout: time.Minute, // slow progress is not a stall
			Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
				if p == core.ChaosStall {
					time.Sleep(20 * time.Millisecond)
				}
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	defer holdFleet(gd)()

	// Two lanes so the batch stays fused (a singleton would solo-
	// dispatch); MaxLanes 2 dispatches as soon as both are seated. The
	// held fleet keeps either lane from taking the idle-fleet bypass.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	anss := make([]*Answer, 2)
	qerrs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range anss {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			anss[i], qerrs[i] = gd.QueryFused(ctx, int32(i*5))
		}(i)
	}
	wg.Wait()
	want0 := graph.ReferenceBFS(g, 0)
	want1 := graph.ReferenceBFS(g, 5)
	for i, qerr := range qerrs {
		if !errors.Is(qerr, context.DeadlineExceeded) {
			t.Fatalf("lane %d: err = %v, want context.DeadlineExceeded", i, qerr)
		}
		ans := anss[i]
		if ans == nil {
			t.Fatalf("lane %d: no partial answer demuxed on batch deadline", i)
		}
		if ans.Outcome != "deadline" {
			t.Fatalf("lane %d: outcome = %q, want deadline", i, ans.Outcome)
		}
		if !ans.Fused {
			t.Fatalf("lane %d: partial answer not marked fused", i)
		}
		// Every settled distance must already be exact.
		want := want0
		if i == 1 {
			want = want1
		}
		for v, d := range ans.Dist {
			if d != graph.Unreached && d != want[v] {
				t.Fatalf("lane %d: partial dist[%d] = %d, want %d", i, v, d, want[v])
			}
		}
	}
}

// TestFusedDisabledFallsBack: QueryFused without Batch.Enabled is
// plain Query.
func TestFusedDisabledFallsBack(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	ans, err := gd.QueryFused(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Fused {
		t.Fatal("solo fallback marked fused")
	}
	if ans.Outcome != "ok" {
		t.Fatalf("outcome = %q, want ok", ans.Outcome)
	}
	checkAnswer(t, g, 0, core.Goal{}, ans)
}

// TestFusedCloseBetweenCheckAndEnqueue is the reload-hang regression: a
// Close that completes between QueryFusedGoal's closed check and its
// enqueue leaves the request in the admission queue after the
// dispatcher's final drain. The call must come back with ErrClosed at
// once — so a registry swap retry re-leases the new generation — not
// park until its deadline and surface as a timeout.
func TestFusedCloseBetweenCheckAndEnqueue(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{
		Concurrency: 1,
		Registry:    obs.New(),
		Batch:       BatchConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	gd.testHookFusedEnqueue = gd.Close
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	ans, err := gd.QueryFused(ctx, 0)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("QueryFused after close in the enqueue window: ans=%v err=%v, want ErrClosed", ans, err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("ErrClosed took %v, want well under the 5s deadline", took)
	}
}

// TestFusedIdleFleetAnswersSolo: with a free solo engine, the fused
// entry point answers at once on it instead of parking for the batch
// window, and the query is accounted exactly once.
func TestFusedIdleFleetAnswersSolo(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	const window = 500 * time.Millisecond
	gd, err := New(g, Config{
		Concurrency: 1,
		Registry:    reg,
		Batch:       BatchConfig{Enabled: true, Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()

	start := time.Now()
	ans, err := gd.QueryFused(context.Background(), 0)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took >= window/2 {
		t.Fatalf("idle-fleet query took %v, want well inside the %v window", took, window)
	}
	if ans.Fused || ans.BatchLanes != 0 {
		t.Fatalf("idle-fleet answer fused=%v lanes=%d, want a plain solo answer", ans.Fused, ans.BatchLanes)
	}
	if ans.Outcome != "ok" || ans.Algorithm != gd.Algorithm() {
		t.Fatalf("outcome %q algorithm %q, want ok %q", ans.Outcome, ans.Algorithm, gd.Algorithm())
	}
	checkAnswer(t, g, 0, core.Goal{}, ans)
	if n := reg.Counter("optibfs_serve_requests_total", obs.L("outcome", "ok")).Value(); n != 1 {
		t.Fatalf("ok requests = %d, want 1", n)
	}
	if n := reg.Histogram("optibfs_serve_latency_seconds",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}).Count(); n != 1 {
		t.Fatalf("latency observations = %d, want 1", n)
	}
	if v := reg.Gauge("optibfs_serve_inflight").Value(); v != 0 {
		t.Fatalf("inflight gauge = %v after return, want 0", v)
	}
	if n := reg.Counter("optibfs_serve_fused_bypass_total").Value(); n != 1 {
		t.Fatalf("fused bypasses = %d, want 1", n)
	}
	if n := reg.Counter("optibfs_serve_fused_batches_total").Value(); n != 0 {
		t.Fatalf("fused batches = %d, want 0", n)
	}
}

// TestFusedOverflowWhenFleetBusy: once every solo engine is taken,
// concurrent queries overflow into one fused batch. MaxLanes equals
// the caller count and the window is long, so the batch dispatches
// exactly when the last lane seats.
func TestFusedOverflowWhenFleetBusy(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	const lanes = 8
	gd, err := New(g, Config{
		Concurrency: 2,
		Registry:    reg,
		Batch:       BatchConfig{Enabled: true, Window: time.Minute, MaxLanes: lanes},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	defer holdFleet(gd)()

	anss := make([]*Answer, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			anss[i], errs[i] = gd.QueryFused(context.Background(), int32(i*31))
		}(i)
	}
	wg.Wait()
	for i := 0; i < lanes; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if !anss[i].Fused || anss[i].BatchLanes != lanes {
			t.Fatalf("lane %d: fused=%v lanes=%d, want fused in a %d-lane batch",
				i, anss[i].Fused, anss[i].BatchLanes, lanes)
		}
		checkAnswer(t, g, int32(i*31), core.Goal{}, anss[i])
	}
	if n := reg.Counter("optibfs_serve_fused_batches_total").Value(); n != 1 {
		t.Fatalf("fused batches = %d, want 1", n)
	}
	if n := reg.Counter("optibfs_serve_fused_bypass_total").Value(); n != 0 {
		t.Fatalf("fused bypasses = %d with the fleet held, want 0", n)
	}
}
