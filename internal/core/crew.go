package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// crew is the worker half of every parallel engine: p goroutines
// spawned at construction, parked between phases, released by the
// driver one phase at a time, and stopped by close — the Go analogue
// of a persistent OpenMP parallel region (paper §IV-D). Unlike a
// `go f(id)` spawn per level, a gate pass allocates nothing.
//
// start installs the phase and passes the (p+1)-party gate, each
// worker runs phase(id), and join's gate pass hands the state back;
// the gate's lock orders the phase write and the driver's work between
// phases, so plain fields suffice. A phase must not let a panic
// escape: engines run phases under their own recovery barrier
// (workerLevel, MSEngine.expandPhase).
type crew struct {
	phase  func(id int)
	gate   *barrier // p workers + the driver
	stop   bool     // set by close before its gate pass
	exited sync.WaitGroup
}

// newCrew spawns p workers labeled with the engine's algorithm, their
// worker id and the level phase: "search" inside a phase, "idle" while
// parked.
func newCrew(p int, algo Algorithm) *crew {
	c := &crew{gate: newBarrier(p + 1)}
	c.exited.Add(p)
	for id := 0; id < p; id++ {
		go c.work(id, pprof.Labels("algo", string(algo), "worker", strconv.Itoa(id)))
	}
	return c
}

func (c *crew) work(id int, labels pprof.LabelSet) {
	defer c.exited.Done()
	// Built once: switching label sets is a pointer store, so a phase
	// allocates nothing.
	ctx := pprof.WithLabels(context.Background(), labels)
	idle := pprof.WithLabels(ctx, pprof.Labels("level-phase", "idle"))
	search := pprof.WithLabels(ctx, pprof.Labels("level-phase", "search"))
	pprof.SetGoroutineLabels(idle)
	for {
		c.gate.wait() // park until a phase arrives (or close)
		if c.stop {
			return
		}
		pprof.SetGoroutineLabels(search)
		c.phase(id)
		pprof.SetGoroutineLabels(idle)
		c.gate.wait() // hand the state back to the driver
	}
}

// start releases phase on every worker; join must follow before the
// next start.
func (c *crew) start(phase func(id int)) {
	c.phase = phase
	c.gate.wait()
}

// join waits for the released phase to quiesce and drops it, so a
// parked crew pins none of its engine's state.
func (c *crew) join() {
	c.gate.wait()
	c.phase = nil
}

// run is start plus join.
func (c *crew) run(phase func(id int)) {
	c.start(phase)
	c.join()
}

// close stops the workers and returns once every one has exited.
func (c *crew) close() {
	c.stop = true
	c.gate.wait()
	c.exited.Wait()
}
