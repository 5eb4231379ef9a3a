package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// panicOnceHook panics the first worker that passes ChaosStall, once.
type panicOnceHook struct{ fired int32 }

func (h *panicOnceHook) At(point ChaosPoint, worker int, value int64) {
	if point == ChaosStall && atomic.CompareAndSwapInt32(&h.fired, 0, 1) {
		panic("recover test: injected worker panic")
	}
}

// sleepHook sleeps d at every ChaosStall firing by worker 0.
type sleepHook struct{ d time.Duration }

func (h *sleepHook) At(point ChaosPoint, worker int, value int64) {
	if point == ChaosStall && worker == 0 {
		time.Sleep(h.d)
	}
}

// TestWorkerPanicRecovery drives an injected panic through every
// lockfree family: the panic must never crash the process, must
// surface as a typed *WorkerPanicError with a partial result, must
// poison the engine, and a fresh engine must then answer exactly. The
// plain subtests panic on a fresh engine's first run; the /persistent
// ones on a warm engine whose crew already served a clean search.
func TestWorkerPanicRecovery(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 18000, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	for _, algo := range []Algorithm{BFSCL, BFSDL, BFSWL, BFSWSL, BFSEL} {
		for _, persistent := range []bool{false, true} {
			name := string(algo)
			if persistent {
				name += "/persistent"
			}
			t.Run(name, func(t *testing.T) {
				e, err := NewEngine(g, algo, Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if persistent {
					if _, err := e.Run(0); err != nil {
						t.Fatalf("clean warm-up run: %v", err)
					}
				}
				e.SetChaos(&panicOnceHook{})
				res, err := e.Run(0)
				if err == nil {
					t.Fatal("injected panic surfaced no error")
				}
				var wp *WorkerPanicError
				if !errors.As(err, &wp) {
					t.Fatalf("got %v, want *WorkerPanicError", err)
				}
				if wp.Algo != algo {
					t.Fatalf("panic error names algo %q, want %q", wp.Algo, algo)
				}
				if len(wp.Stack) == 0 {
					t.Fatal("panic error carries no stack")
				}
				if res == nil {
					t.Fatal("poisoned run returned no partial result")
				}
				// The engine is poisoned: later runs fail fast without
				// touching the abandoned state.
				if _, err := e.Run(0); !errors.Is(err, ErrPoisoned) {
					t.Fatalf("second run on poisoned engine: got %v, want ErrPoisoned", err)
				}
				// A fresh engine over the same graph is unaffected.
				e2, err := NewEngine(g, algo, Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer e2.Close()
				res2, err := e2.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := graph.EqualDistances(res2.Dist, want); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// flipPanicHook panics at the first ChaosDirectionFlip, the chaos
// point inside the driver's barrier step rather than a worker's level.
type flipPanicHook struct{ fired int32 }

func (h *flipPanicHook) At(point ChaosPoint, worker int, value int64) {
	if point == ChaosDirectionFlip && atomic.CompareAndSwapInt32(&h.fired, 0, 1) {
		panic("recover test: injected barrier-step panic")
	}
}

// TestBarrierStepPanicPoisons drives a panic through the barrier step
// the driver runs between levels (audit, swap, hybrid direction step):
// it must be recovered like a worker panic — a *WorkerPanicError with
// a partial result, then ErrPoisoned — not crash the process, on the
// plain and the sharded engine alike.
func TestBarrierStepPanicPoisons(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 18000, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			hook := &flipPanicHook{}
			e, err := NewBackend(g, BFSWSL, Options{Hybrid: true, Shards: shards, Chaos: hook})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			res, err := e.Run(0)
			var wp *WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("got %v, want *WorkerPanicError", err)
			}
			if atomic.LoadInt32(&hook.fired) == 0 {
				t.Fatal("hook never reached ChaosDirectionFlip")
			}
			if res == nil {
				t.Fatal("poisoned run returned no partial result")
			}
			if _, err := e.Run(0); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("second run: got %v, want ErrPoisoned", err)
			}
		})
	}
}

// TestStallDetection wedges worker 0 far past StallTimeout and
// requires a typed *StallError within the window (with slack), a
// partial result, and — unlike a panic — an engine that stays fully
// reusable once the fault source is removed, on every engine that
// shares the run-control: plain, sharded (one watchdog over both
// shards) and fused.
func TestStallDetection(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 18000, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	opt := Options{
		Workers:      4,
		StallTimeout: 100 * time.Millisecond,
		Chaos:        &sleepHook{d: 800 * time.Millisecond},
	}
	for _, c := range []struct {
		name   string
		algo   Algorithm
		shards int
	}{
		{"BFS_CL", BFSCL, 1},
		{"BFS_WSL", BFSWSL, 1},
		{"BFS_WSL-shards=2", BFSWSL, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := opt
			o.Shards = c.shards
			e, err := NewBackend(g, c.algo, o)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			checkStall(t, func() (bool, error) {
				res, err := e.Run(0)
				return res != nil, err
			}, func() error {
				e.SetChaos(nil)
				res, err := e.Run(0)
				if err != nil {
					return err
				}
				return graph.EqualDistances(res.Dist, want)
			})
		})
	}
	t.Run(string(MSBFSL), func(t *testing.T) {
		e, err := NewMSEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		srcs := []int32{0, 17, 1500, 2999}
		checkStall(t, func() (bool, error) {
			res, err := e.Run(srcs)
			return res != nil, err
		}, func() error {
			e.SetChaos(nil)
			res, err := e.Run(srcs)
			if err != nil {
				return err
			}
			for i, src := range srcs {
				if err := graph.EqualDistances(res.Lane(i).Dist, graph.ReferenceBFS(g, src)); err != nil {
					return fmt.Errorf("lane %d: %w", i, err)
				}
			}
			return nil
		})
	})
}

// checkStall runs a stalled search and holds it to the stall contract:
// a typed *StallError with a partial result well before the stalled
// worker would have woken a few times over, then an exact rerun on the
// same engine once the fault is disarmed.
func checkStall(t *testing.T, run func() (partial bool, err error), rerun func() error) {
	t.Helper()
	start := time.Now()
	partial, err := run()
	elapsed := time.Since(start)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *StallError", err)
	}
	if !partial {
		t.Fatal("stalled run returned no partial result")
	}
	// Detection must happen within the sleep (the stalled worker wakes
	// at ~800ms; the watchdog window is 100ms).
	if elapsed >= 3*time.Second {
		t.Fatalf("stall detected only after %s", elapsed)
	}
	// A stall abort does not poison: the same engine must answer
	// exactly.
	if err := rerun(); err != nil {
		t.Fatalf("stalled engine not reusable: %v", err)
	}
}

// stallThenPanicHook stalls worker 1 at its first ChaosStall for d —
// long enough for the watchdog to declare a stall — and then panics it,
// so the panic lands on a run that is already aborted.
type stallThenPanicHook struct {
	d     time.Duration
	fired int32
}

func (h *stallThenPanicHook) At(point ChaosPoint, worker int, value int64) {
	if point == ChaosStall && worker == 1 && atomic.CompareAndSwapInt32(&h.fired, 0, 1) {
		time.Sleep(h.d)
		panic("recover test: panic after stall")
	}
}

// TestPanicAfterStallReleasesPeers is the regression test for a hang
// the engines chaos soak found: a worker that panicked after the
// watchdog had already declared a stall skipped BFS_WSL's phase
// barrier, but the stall abort had claimed the abort word first, so
// the barrier was never poisoned and the peers waited there forever.
// The panic must take over: release the barrier, surface as a
// *WorkerPanicError, and poison the engine.
func TestPanicAfterStallReleasesPeers(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 18000, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, persistent := range []bool{false, true} {
		t.Run(fmt.Sprintf("persistent=%v", persistent), func(t *testing.T) {
			e, err := NewEngine(g, BFSWSL, Options{Workers: 3, StallTimeout: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if persistent {
				// Warm the crew on a clean search first. A false stall
				// on a loaded host is tolerable here: stalls leave the
				// engine reusable.
				var se *StallError
				if _, err := e.Run(0); err != nil && !errors.As(err, &se) {
					t.Fatalf("clean warm-up run: %v", err)
				}
			}
			e.SetChaos(&stallThenPanicHook{d: 300 * time.Millisecond})
			done := make(chan error, 1)
			go func() {
				_, err := e.Run(0)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("run hung: the panicking worker stranded its peers at the phase barrier")
			}
			defer e.Close()
			var wp *WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("got %v, want *WorkerPanicError", err)
			}
			if _, err := e.Run(0); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("second run: got %v, want ErrPoisoned", err)
			}
		})
	}
}

// TestWatchdogFalsePositive is the regression guard for the watchdog's
// core promise: a run that is slow but making progress (every level
// costs a couple of milliseconds on a deep path, far more levels than
// the watchdog window) must never be killed.
func TestWatchdogFalsePositive(t *testing.T) {
	g, err := gen.Path(300)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	opt := Options{
		Workers:      4,
		StallTimeout: 300 * time.Millisecond,
		// 2ms per level x 300 levels: the whole run takes ~600ms —
		// twice the watchdog window — but no beat gap approaches it.
		Chaos: &sleepHook{d: 2 * time.Millisecond},
	}
	res, err := Run(g, 0, BFSWL, opt)
	if err != nil {
		t.Fatalf("slow-but-progressing run killed: %v", err)
	}
	if err := graph.EqualDistances(res.Dist, want); err != nil {
		t.Fatal(err)
	}
}
