package core

// Failure model: panic isolation and the stall watchdog.
//
// The paper's optimistic protocols tolerate *benign* failure — torn
// descriptor reads, duplicate exploration — by construction. This file
// adds tolerance for the malign modes a serving deployment must
// survive: a worker goroutine panicking mid-level (which would
// otherwise kill the whole process, since an unrecovered panic on any
// goroutine is fatal in Go), and a run that stops making progress
// (which would otherwise wedge the caller forever).
//
// The machinery follows the protocols' own discipline — no atomic
// read-modify-write on any per-vertex or per-edge path:
//
//   - Every worker executes its level under recover() (workerLevel).
//     The first captured panic is recorded as a *WorkerPanicError and
//     the run is aborted; the recovering worker keeps participating in
//     the crew's gate barrier so the phase protocol stays in
//     lockstep, and the scale-free phase barrier — the only barrier a
//     dead worker could strand peers at — is poisoned open.
//   - Aborts are published through one atomic int32 (abortFlag),
//     written once under abortMu and read with plain atomic loads at
//     dispatch-loop boundaries (per segment, per steal attempt, per
//     publication batch — never per vertex or edge).
//   - Progress heartbeats are one padded counter per worker, bumped
//     with a single-writer atomic Load+Store at the same dispatch
//     boundaries; the watchdog samples their sum. No RMW, no locks.
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
// one) can still strand peers in mu.Lock, where no abort flag can
// reach them.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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
// is single-writer: only worker id bumps beats[id], with a load and a
// relaxed store (no RMW), and the watchdog reads with atomic loads.
type beatLane struct {
	n int64 // atomic
	_ [56]byte
}

// beat bumps worker id's heartbeat. Called at dispatch boundaries —
// segment fetches, steal-drain publication batches, hot-vertex chunks —
// never per vertex or edge.
func (st *state) beat(id int) {
	b := &st.beats[id]
	storeRelaxed64(&b.n, atomic.LoadInt64(&b.n)+1)
}

// beatSum samples the run's total progress.
func (st *state) beatSum() int64 {
	var n int64
	for i := range st.beats {
		n += atomic.LoadInt64(&st.beats[i].n)
	}
	return n
}

// aborted reports whether the run has been aborted for any reason.
// One atomic load; checked at the same dispatch boundaries as beat.
func (st *state) aborted() bool {
	return atomic.LoadInt32(&st.abortFlag) != abortNone
}

// abortRun publishes an abort. Between stalls and cancellations the
// first reason wins: whichever landed first is the one that actually
// stopped the run. A panic always takes over, even after a stall or
// cancel abort: the dead worker skips every barrier still ahead of it,
// so the registered poison hooks must run (under abortMu, exactly once)
// to release peers waiting there, and the engine must be poisoned
// because the worker abandoned its state mid-level. Stall/cancel aborts
// wind down cooperatively through the normal barriers, so poisoning —
// which would race the next level's barrier re-arm — is neither needed
// nor safe there.
func (st *state) abortRun(reason int32, stall *StallError) {
	st.abortMu.Lock()
	defer st.abortMu.Unlock()
	cur := st.abortFlag
	if cur == abortPanic || (cur != abortNone && reason != abortPanic) {
		return
	}
	if cur == abortNone {
		st.stall = stall
	}
	atomic.StoreInt32(&st.abortFlag, reason)
	if reason == abortPanic {
		for _, poison := range st.abortHooks {
			poison()
		}
	}
}

// recordPanic captures a worker panic as the run's abort cause. Only
// the first panic is kept (concurrent panics from several workers
// race; one error is enough to poison the run).
func (st *state) recordPanic(id int, v any, stack []byte) {
	st.abortMu.Lock()
	if st.wpanic == nil {
		st.wpanic = &WorkerPanicError{
			Worker: id,
			Algo:   st.algo,
			Level:  st.level,
			Value:  v,
			Stack:  stack,
		}
	}
	st.abortMu.Unlock()
	st.abortRun(abortPanic, nil)
}

// recoverWorker is the deferred recovery barrier at the top of every
// worker's level: it converts a panic into an abort and lets the
// worker return normally so it keeps meeting its barriers. Deferred as
// a method call (not a closure) so the defer stays open-coded and the
// crew's hot loop allocates nothing. The driver's barrier step
// (nextLevel, closeLevel) runs under it too, charged to worker 0.
func (st *state) recoverWorker(id int) {
	if r := recover(); r != nil {
		st.recordPanic(id, r, debug.Stack())
	}
}

// workerLevel runs one worker's share of one level under the recovery
// barrier. ChaosStall fires first — once per worker per level, in
// every parallel family — giving the chaos harness a uniform place to
// inject panics and forced stalls. perLevel always runs, even when the
// run is already aborted: the bindings' own abort checks make it
// cheap, and skipping it here would strand peers at the scale-free
// phase barrier, which expects all p parties.
// Sharded engines add a trailing exchange flush: whatever the binding
// left in the worker's private remote blocks is published before the
// global barrier, the cross-shard analogue of the bindings' own
// endLevelOut — placed here because it is the one point every family's
// worker passes in every phase.
func (st *state) workerLevel(id int, perLevel func(id int)) {
	defer st.recoverWorker(id)
	st.chaosAt(ChaosStall, id, int64(st.level))
	perLevel(id)
	if st.shardEx != nil {
		st.endLevelRemote(id)
	}
}

// abortError maps the abort flag to the error the run surfaces.
// Cancellation returns nil here: RunContext reports ctx.Err() itself,
// preserving the pre-watchdog contract that a canceled run returns the
// context's error.
func (st *state) abortError() error {
	switch atomic.LoadInt32(&st.abortFlag) {
	case abortPanic:
		return st.wpanic
	case abortStall:
		return st.stall
	}
	return nil
}

// abortPoisons reports whether the abort leaves the pooled state
// unsafe to reuse. Only panics do: the dead worker may have abandoned
// half-published queues and a poisoned phase barrier. Stalls and
// cancellations wind down through the normal barriers.
func (st *state) abortPoisons() bool {
	return atomic.LoadInt32(&st.abortFlag) == abortPanic
}

// watched is what a stall watchdog samples and aborts: a plain
// engine's state, or a sharded engine as a whole. A sharded engine has
// one watchdog over the summed heartbeats of all shards, because a
// global level barrier couples the shards: one wedged shard starves
// every other, so per-shard watchdogs would fire S spurious aborts
// where one global verdict is wanted.
type watched interface {
	beatSum() int64
	aborted() bool
	abortRun(reason int32, stall *StallError)
}

// watchdog is an engine's stall monitor, armed by
// Options.StallTimeout (a nil watchdog — the default — watches
// nothing). Each run starts one goroutine that samples the heartbeat
// sum at window/8 granularity and declares a stall when the sum stays
// unchanged for a full window; it also observes the run's ctx so
// cancellation takes effect mid-level instead of waiting for the next
// level boundary. The channels and the ticker are allocated once and
// reused, so a warm watched run allocates only the goroutine's launch
// closure. The heartbeat sites sit at dispatch boundaries, so the
// window must exceed the time one dispatch unit (a segment of at most
// 1024 vertices, one publication batch, or one hot-vertex chunk) can
// legitimately take; the default serving configuration uses seconds
// against micro- to millisecond units.
type watchdog struct {
	target     watched
	algo       Algorithm
	level      *int32 // the target's atomic level mirror
	window     time.Duration
	stop, done chan struct{}
	ticker     *time.Ticker // owned by the running watch goroutine
}

func newWatchdog(target watched, algo Algorithm, level *int32, window time.Duration) *watchdog {
	if window <= 0 {
		return nil
	}
	return &watchdog{
		target: target,
		algo:   algo,
		level:  level,
		window: window,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// start launches the monitor for one run; end stops it and returns
// once it has exited. Both are no-ops on a nil watchdog.
func (wd *watchdog) start(ctx context.Context) {
	if wd != nil {
		go wd.watch(ctx)
	}
}

func (wd *watchdog) end() {
	if wd != nil {
		wd.stop <- struct{}{}
		<-wd.done
	}
}

func (wd *watchdog) watch(ctx context.Context) {
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
	last := wd.target.beatSum()
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
			wd.target.abortRun(abortCancel, nil)
			ctxDone = nil
		case <-wd.ticker.C:
			if wd.target.aborted() {
				// Wind-down after any abort is progress-free by nature;
				// keep ticking only to honor stop.
				continue
			}
			cur := wd.target.beatSum()
			if cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) < wd.window {
				continue
			}
			wd.target.abortRun(abortStall, &StallError{
				Algo:     wd.algo,
				Level:    atomic.LoadInt32(wd.level),
				Window:   wd.window,
				Progress: cur,
			})
		}
	}
}
