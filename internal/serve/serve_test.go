package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/obs"
)

// hookFunc adapts a function to core.ChaosHook.
type hookFunc func(point core.ChaosPoint, worker int, value int64)

func (f hookFunc) At(point core.ChaosPoint, worker int, value int64) { f(point, worker, value) }

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := gen.ErdosRenyi(2000, 12000, 7, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkAnswer holds an answer to the answer tier of the audit
// contract. The Guard forces parent tracking, so parents are required.
func checkAnswer(t *testing.T, g *graph.CSR, src int32, goal core.Goal, ans *Answer) {
	t.Helper()
	if ans.Parent == nil {
		t.Fatalf("src %d: answer carries no parents", src)
	}
	if err := core.AuditError(core.AuditAnswer(g, src, nil, goal, ans.AsResult())); err != nil {
		t.Fatalf("src %d goal %+v: %v", src, goal, err)
	}
}

func TestQueryOK(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	ans, err := gd.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Outcome != "ok" {
		t.Fatalf("outcome = %q, want ok", ans.Outcome)
	}
	checkAnswer(t, g, 0, core.Goal{}, ans)
}

func TestQueryBadSourceAndClosed(t *testing.T) {
	g := testGraph(t)
	gd, err := New(g, Config{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gd.Query(context.Background(), -1); !errors.Is(err, ErrBadSource) {
		t.Fatalf("src -1: got %v", err)
	}
	if _, err := gd.Query(context.Background(), g.NumVertices()); !errors.Is(err, ErrBadSource) {
		t.Fatalf("src N: got %v", err)
	}
	gd.Close()
	if _, err := gd.Query(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed guard: got %v", err)
	}
}

// TestRecoveredAfterOnePanic: the first run panics, the ladder
// rebuilds the poisoned engine and the retry succeeds on the same
// parallel algorithm.
func TestRecoveredAfterOnePanic(t *testing.T) {
	g := testGraph(t)
	var fired int32
	reg := obs.New()
	cfg := Config{
		Concurrency: 1,
		Registry:    reg,
		Options: core.Options{Workers: 4, Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
			if p == core.ChaosStall && atomic.CompareAndSwapInt32(&fired, 0, 1) {
				panic("serve test: one-shot injected panic")
			}
		})},
	}
	gd, err := New(g, cfg)
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
	if n := reg.Counter("optibfs_serve_failures_total", obs.L("kind", "panic")).Value(); n != 1 {
		t.Fatalf("panic failures counted = %d, want 1", n)
	}
	if n := reg.Counter("optibfs_serve_engine_rebuilds_total").Value(); n != 1 {
		t.Fatalf("rebuilds counted = %d, want 1", n)
	}
}

// TestDegradedToSerial: every parallel run panics, so after the
// retry the Guard must degrade to the serial oracle and still answer
// correctly. Looped over every lockfree family under persistent
// workers — this is the process-survival contract: injected panics in
// worker goroutines never crash the test binary, poisoned engines are
// discarded, and the fallback answer is exact.
func TestDegradedToSerial(t *testing.T) {
	g := testGraph(t)
	algos := []core.Algorithm{core.BFSCL, core.BFSDL, core.BFSWL, core.BFSWSL}
	for _, algo := range algos {
		t.Run(string(algo), func(t *testing.T) {
			reg := obs.New()
			cfg := Config{
				Algo:        algo,
				Concurrency: 1,
				Registry:    reg,
				Options: core.Options{
					Workers: 4,
					Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
						if p == core.ChaosStall {
							panic("serve test: injected panic")
						}
					}),
				},
			}
			gd, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer gd.Close()
			ans, err := gd.Query(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Outcome != "degraded" {
				t.Fatalf("outcome = %q, want degraded", ans.Outcome)
			}
			if ans.Algorithm != core.Serial {
				t.Fatalf("algorithm = %q, want serial oracle", ans.Algorithm)
			}
			checkAnswer(t, g, 0, core.Goal{}, ans)
			if n := reg.Counter("optibfs_serve_failures_total", obs.L("kind", "panic")).Value(); n != 2 {
				t.Fatalf("panic failures counted = %d, want 2 (primary + retry)", n)
			}
			if n := reg.Counter("optibfs_serve_requests_total", obs.L("outcome", "degraded")).Value(); n != 1 {
				t.Fatalf("degraded requests counted = %d, want 1", n)
			}
		})
	}
}

// TestStallDegrades: a forced stall (worker sleeping far past
// StallTimeout at every level) is detected by the watchdog and walks
// the same ladder.
func TestStallDegrades(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	cfg := Config{
		Concurrency: 1,
		Registry:    reg,
		Deadline:    30 * time.Second,
		Options: core.Options{
			Workers:      4,
			StallTimeout: 50 * time.Millisecond,
			Chaos: hookFunc(func(p core.ChaosPoint, w int, _ int64) {
				if p == core.ChaosStall && w == 0 {
					time.Sleep(400 * time.Millisecond)
				}
			}),
		},
	}
	gd, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	ans, err := gd.Query(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Outcome != "degraded" && ans.Outcome != "recovered" {
		t.Fatalf("outcome = %q, want degraded or recovered", ans.Outcome)
	}
	checkAnswer(t, g, 0, core.Goal{}, ans)
	if n := reg.Counter("optibfs_serve_failures_total", obs.L("kind", "stall")).Value(); n < 1 {
		t.Fatalf("stall failures counted = %d, want >= 1", n)
	}
	// A stalled engine is structurally sound: the retry reuses it.
	if n := reg.Counter("optibfs_serve_engine_rebuilds_total").Value(); n != 0 {
		t.Fatalf("engine rebuilds = %d, want 0", n)
	}
}

// TestShedWhenBusy: with one engine held busy and no queue wait, a
// second query is shed with ErrOverloaded instead of blocking.
func TestShedWhenBusy(t *testing.T) {
	g := testGraph(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once int32
	reg := obs.New()
	cfg := Config{
		Concurrency: 1,
		Registry:    reg,
		Options: core.Options{
			Workers: 2,
			// Long watchdog window so the deliberate block below is
			// not mistaken for a stall.
			StallTimeout: time.Minute,
			Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
				if p == core.ChaosStall && atomic.CompareAndSwapInt32(&once, 0, 1) {
					close(entered)
					<-release
				}
			}),
		},
	}
	gd, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	done := make(chan error, 1)
	go func() {
		_, qerr := gd.Query(context.Background(), 0)
		done <- qerr
	}()
	<-entered
	if _, err := gd.Query(context.Background(), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("busy guard: got %v, want ErrOverloaded", err)
	}
	close(release)
	if qerr := <-done; qerr != nil {
		t.Fatal(qerr)
	}
	if n := reg.Counter("optibfs_serve_requests_total", obs.L("outcome", "shed")).Value(); n != 1 {
		t.Fatalf("shed requests counted = %d, want 1", n)
	}
}

// TestDeadlineExceeded: a query whose budget expires mid-run returns
// context.DeadlineExceeded (the watchdog converts the expiry into a
// cooperative abort well inside the grace window).
func TestDeadlineExceeded(t *testing.T) {
	g := testGraph(t)
	reg := obs.New()
	cfg := Config{
		Concurrency: 1,
		Registry:    reg,
		Deadline:    50 * time.Millisecond,
		Grace:       5 * time.Second,
		Options: core.Options{
			Workers: 2,
			// Progressing slowly is not stalling: the watchdog window
			// is huge, so only its context-assist path may abort.
			StallTimeout: time.Minute,
			Chaos: hookFunc(func(p core.ChaosPoint, _ int, _ int64) {
				if p == core.ChaosStall {
					time.Sleep(30 * time.Millisecond)
				}
			}),
		},
	}
	gd, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gd.Close()
	_, err = gd.Query(context.Background(), 0)
	if err == nil {
		t.Fatal("slow run beat a 50ms deadline (expected expiry)")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if n := reg.Counter("optibfs_serve_requests_total", obs.L("outcome", "deadline")).Value(); n != 1 {
		t.Fatalf("deadline requests counted = %d, want 1", n)
	}
}
