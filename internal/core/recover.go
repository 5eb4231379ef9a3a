package core

// Failure model: one run-control per engine.
//
// The paper's optimistic protocols tolerate *benign* failure — torn
// descriptor reads, duplicate exploration — by construction. This file
// adds tolerance for the malign modes a serving deployment must
// survive: a worker goroutine panicking mid-level (which would
// otherwise kill the whole process, since an unrecovered panic on any
// goroutine is fatal in Go), and a run that stops making progress
// (which would otherwise wedge the caller forever).
//
// Every engine — Engine, ShardedEngine (one control shared by all its
// shards) and MSEngine — stops through one runCtl, which follows the
// protocols' own discipline: no atomic read-modify-write on any
// per-vertex or per-edge path.
//
//   - Every worker executes its phase under recover() (recoverWorker).
//     The first captured panic is recorded as a *WorkerPanicError and
//     the run is aborted; the recovering worker keeps participating in
//     the crew's gate barrier so the phase protocol stays in
//     lockstep, and the scale-free phase barrier — the only barrier a
//     dead worker could strand peers at — is poisoned open.
//   - Aborts are published through one atomic int32 (the abort word),
//     written once under a small mutex and read with plain atomic loads
//     at dispatch-loop boundaries (per segment, per steal attempt, per
//     publication batch — never per vertex or edge).
//   - Progress heartbeats are one padded counter per worker, bumped
//     with a single-writer atomic Load+Store at the same dispatch
//     boundaries; the watchdog samples their sum. No RMW, no locks.
//     While the driver holds the barrier between phases (the commit,
//     audit and frontier swap, which no worker beats through) the
//     stall window is suspended.
//
// A panic poisons the engine: pooled state that a worker abandoned
// mid-mutation (half-appended discovery blocks, unconsumed queue
// slots, a poisoned phase barrier) must not be reused, so every later
// run fails fast with ErrPoisoned and the caller builds a fresh
// engine. A stall or cancellation aborts cooperatively — workers wind
// down through their normal loop exits and barriers — so the engine
// stays structurally sound and reusable.
//
// Scope: the recovery guarantee covers the lockfree families, whose
// workers never block each other. In the locked variants a panic while
// holding a mutex (impossible from the chaos hooks, which all fire
// outside critical sections, but possible from a genuine bug under
// one) can still strand peers in mu.Lock, where no abort word can
// reach them.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Abort reasons, first writer wins. abortNone is the zero value so a
// freshly primed run is un-aborted without an extra store.
const (
	abortNone int32 = iota
	// abortCancel: the run's context fired; surfaced as ctx.Err() by
	// RunContext. Leaves the engine reusable.
	abortCancel
	// abortStall: the watchdog saw no heartbeat progress for
	// Options.StallTimeout; surfaced as *StallError. Leaves the engine
	// reusable (workers wound down cooperatively).
	abortStall
	// abortPanic: a worker panicked; surfaced as *WorkerPanicError.
	// Poisons the engine.
	abortPanic
)

// ErrPoisoned is returned by every run on an engine poisoned by a
// worker panic. Pooled per-run state a panicking worker abandoned
// mid-mutation cannot be trusted again; build a new Engine (the graph
// itself is immutable and safe to share with the replacement).
var ErrPoisoned = errors.New("core: engine poisoned by a worker panic; build a new engine")

// WorkerPanicError reports a panic captured on a worker goroutine: the
// run aborted instead of the process crashing. The engine that
// produced it is poisoned (see ErrPoisoned); the partial Result
// returned alongside reports how far the search got.
type WorkerPanicError struct {
	// Worker is the panicking worker's id.
	Worker int
	// Algo is the variant that was running.
	Algo Algorithm
	// Level is the BFS level in flight when the panic fired.
	Level int32
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error summarizes the panic without the stack (callers that want the
// trace read Stack directly).
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("core: worker %d panicked in %s at level %d: %v", e.Worker, e.Algo, e.Level, e.Value)
}

// StallError reports that the watchdog aborted a run because no worker
// made dispatch progress for the configured window. The engine remains
// reusable — workers wound down through their normal barriers — but a
// serving layer should treat the graph/option combination with
// suspicion (see internal/serve's escalation ladder).
type StallError struct {
	// Algo is the variant that stalled.
	Algo Algorithm
	// Level is the BFS level in flight when the stall was declared.
	Level int32
	// Window is the no-progress window that expired (Options.StallTimeout).
	Window time.Duration
	// Progress is the heartbeat sum at declaration time, i.e. how many
	// dispatch units the run completed before going quiet.
	Progress int64
}

// Error summarizes the stall.
func (e *StallError) Error() string {
	return fmt.Sprintf("core: %s stalled at level %d: no dispatch progress for %s (heartbeat %d)", e.Algo, e.Level, e.Window, e.Progress)
}

// beatLane is one worker's progress heartbeat, padded so the watchdog's
// sampling never bounces a cache line a worker is writing. The counter
// is single-writer: only its worker bumps it, with a load and a relaxed
// store (no RMW), and the watchdog reads with atomic loads.
type beatLane struct {
	n int64 // atomic
	_ [56]byte
}

// bump advances the lane. Called at dispatch boundaries — segment
// fetches, steal-drain publication batches, hot-vertex chunks — never
// per vertex or edge.
func (b *beatLane) bump() {
	storeRelaxed64(&b.n, atomic.LoadInt64(&b.n)+1)
}

// runCtl is an engine's one run-control: the abort word and its typed
// cause, the heartbeat lanes, the level mirror, the poisoned bit and
// the optional stall watchdog. A ShardedEngine shares one runCtl
// across its shards — S·p beat lanes, each shard state holding its own
// [base, base+p) slice — so a panic on any shard aborts all of them
// and the run has one verdict.
type runCtl struct {
	algo Algorithm
	ctx  context.Context // the current run's; checked at level boundaries

	flag   int32 // atomic; abort reason, abortNone while running
	level  int32 // atomic; level mirror for readers outside the barrier protocol
	driver int32 // relaxed store; 1 while the driver holds the barrier

	abortMu sync.Mutex // serializes abort writers
	wpanic  *WorkerPanicError
	stall   *StallError
	// hooks are the poison callbacks the bindings register for barriers
	// a dead worker could strand peers at.
	hooks []func()
	beats []beatLane

	// poisoned outlives the run: set when a run ends on a worker panic,
	// it makes every later run fail fast with ErrPoisoned (the crew
	// survives, parked at the gate, so Close still stops it).
	poisoned bool

	wd *watchdog // nil unless Options.StallTimeout
}

// newRunCtl builds the control for an engine of the given variant with
// lanes heartbeat lanes, armed with a stall watchdog when window > 0.
func newRunCtl(algo Algorithm, lanes int, window time.Duration) *runCtl {
	c := &runCtl{algo: algo, beats: make([]beatLane, lanes)}
	if window > 0 {
		c.wd = &watchdog{window: window, stop: make(chan struct{}), done: make(chan struct{})}
	}
	return c
}

// begin primes the control for one run with the driver holding the
// barrier, and starts the watchdog if armed.
func (c *runCtl) begin(ctx context.Context) {
	c.ctx = ctx
	atomic.StoreInt32(&c.flag, abortNone)
	c.wpanic, c.stall = nil, nil
	c.setLevel(0)
	c.hold(true)
	for i := range c.beats {
		atomic.StoreInt64(&c.beats[i].n, 0)
	}
	if c.wd != nil {
		go c.watch(ctx)
	}
}

// end stops the watchdog and returns the run's error: the
// *WorkerPanicError (poisoning the engine) or *StallError that aborted
// it, else the context's error if it fired — a canceled run returns
// ctx.Err() — else nil.
func (c *runCtl) end() error {
	if c.wd != nil {
		c.wd.stop <- struct{}{}
		<-c.wd.done
	}
	switch atomic.LoadInt32(&c.flag) {
	case abortPanic:
		c.poisoned = true
		return c.wpanic
	case abortStall:
		return c.stall
	}
	if c.ctx != nil {
		return c.ctx.Err()
	}
	return nil
}

// aborted reports whether the run has been aborted for any reason.
// One atomic load; checked at the same dispatch boundaries as the
// heartbeats.
func (c *runCtl) aborted() bool {
	return atomic.LoadInt32(&c.flag) != abortNone
}

// panicked reports whether the run ended on a worker panic, whose
// abandoned buffers must not be committed.
func (c *runCtl) panicked() bool {
	return atomic.LoadInt32(&c.flag) == abortPanic
}

// canceled reports whether the run's context (if any) has fired.
// Checked by the driver at level boundaries only; mid-level
// cancellation is the watchdog's ctx assist.
func (c *runCtl) canceled() bool {
	return c.ctx != nil && c.ctx.Err() != nil
}

// setLevel publishes the level in flight for the watchdog and panic
// reports; the driver calls it at each level barrier.
func (c *runCtl) setLevel(l int32) { atomic.StoreInt32(&c.level, l) }

// hold marks the driver as holding (true) or releasing (false) the
// barrier. While held, no worker is running and none can beat, so the
// watchdog suspends its stall window: a barrier step that outlasts the
// window (a large fused commit, say) is driver work, not a stall.
func (c *runCtl) hold(on bool) {
	var v int32
	if on {
		v = 1
	}
	storeRelaxed32(&c.driver, v)
}

// run releases one crew phase with the stall window open and takes the
// barrier back when it joins.
func (c *runCtl) run(cr *crew, phase func(id int)) {
	c.hold(false)
	cr.run(phase)
	c.hold(true)
}

// abort publishes an abort. Between stalls and cancellations the first
// reason wins: whichever landed first is the one that actually stopped
// the run. A panic always takes over, even after a stall or cancel
// abort: the dead worker skips every barrier still ahead of it, so the
// registered poison hooks must run (under abortMu, exactly once) to
// release peers waiting there, and the engine must be poisoned because
// the worker abandoned its state mid-level. Stall/cancel aborts wind
// down cooperatively through the normal barriers, so poisoning — which
// would race the next level's barrier re-arm — is neither needed nor
// safe there.
func (c *runCtl) abort(reason int32, stall *StallError) {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	cur := c.flag
	if cur == abortPanic || (cur != abortNone && reason != abortPanic) {
		return
	}
	if cur == abortNone {
		c.stall = stall
	}
	atomic.StoreInt32(&c.flag, reason)
	if reason == abortPanic {
		for _, poison := range c.hooks {
			poison()
		}
	}
}

// recoverWorker is the deferred recovery barrier at the top of every
// worker's phase: it converts a panic into an abort and lets the
// worker return normally so it keeps meeting its barriers. Deferred as
// a method call (not a closure) so the defer stays open-coded and the
// crew's hot loop allocates nothing. The driver's barrier step runs
// under it too, charged to worker 0. Only the first panic is kept
// (concurrent panics from several workers race; one error is enough to
// poison the run).
func (c *runCtl) recoverWorker(id int) {
	r := recover()
	if r == nil {
		return
	}
	stack := debug.Stack()
	c.abortMu.Lock()
	if c.wpanic == nil {
		c.wpanic = &WorkerPanicError{Worker: id, Algo: c.algo, Level: atomic.LoadInt32(&c.level), Value: r, Stack: stack}
	}
	c.abortMu.Unlock()
	c.abort(abortPanic, nil)
}

// beatSum samples the run's total progress.
func (c *runCtl) beatSum() int64 {
	var n int64
	for i := range c.beats {
		n += atomic.LoadInt64(&c.beats[i].n)
	}
	return n
}

// watchdog is a run-control's stall monitor, armed by
// Options.StallTimeout. Each run starts one goroutine that samples the
// heartbeat sum at window/8 granularity and declares a stall when the
// sum stays unchanged for a full window of open phases; it also
// observes the run's ctx so cancellation takes effect mid-level
// instead of waiting for the next level boundary (the ctx assist). The
// channels and the ticker are allocated once and reused, so a warm
// watched run allocates only the goroutine's launch. The heartbeat
// sites sit at dispatch boundaries, so the window must exceed the time
// one dispatch unit (a segment of at most 1024 vertices, one
// publication batch, or one hot-vertex chunk) can legitimately take;
// the default serving configuration uses seconds against micro- to
// millisecond units.
type watchdog struct {
	window     time.Duration
	stop, done chan struct{}
	ticker     *time.Ticker // owned by the running watch goroutine
}

func (c *runCtl) watch(ctx context.Context) {
	wd := c.wd
	tick := wd.window / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	// A tick left over from the previous run only samples early.
	if wd.ticker == nil {
		wd.ticker = time.NewTicker(tick)
	} else {
		wd.ticker.Reset(tick)
	}
	defer func() {
		wd.ticker.Stop()
		wd.done <- struct{}{}
	}()
	last := c.beatSum()
	lastChange := time.Now()
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	for {
		select {
		case <-wd.stop:
			return
		case <-ctxDone:
			c.abort(abortCancel, nil)
			ctxDone = nil
		case <-wd.ticker.C:
			if c.aborted() {
				// Wind-down after any abort is progress-free by nature;
				// keep ticking only to honor stop.
				continue
			}
			cur := c.beatSum()
			if cur != last || atomic.LoadInt32(&c.driver) != 0 {
				last = cur
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) < wd.window {
				continue
			}
			c.abort(abortStall, &StallError{
				Algo:     c.algo,
				Level:    atomic.LoadInt32(&c.level),
				Window:   wd.window,
				Progress: cur,
			})
		}
	}
}
