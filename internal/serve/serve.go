// Package serve hardens the BFS engines for long-running request
// serving. A Guard wraps a small fleet of pooled core.Engine instances
// with the failure-containment policy a daemon needs and batch tools
// don't:
//
//   - Deadline budgets: every query runs under a context deadline
//     (the caller's, or Config.Deadline when the caller set none), so
//     no request can hold an engine forever.
//   - Bounded concurrency with load shedding: at most Concurrency
//     queries run at once; when every engine is busy past QueueWait
//     the query is shed with ErrOverloaded instead of queuing without
//     bound.
//   - Escalation ladder: a query whose run dies of an engine failure —
//     a recovered worker panic, a watchdog-detected stall, a poisoned
//     engine, or a wedge past its grace window — retries once on the
//     same algorithm; if that also fails it degrades to the serial
//     oracle, which has no shared state to corrupt. A panicked,
//     poisoned or wedged engine is replaced before the retry; a
//     stalled one wound down cooperatively and is reused as is.
//     Callers get a correct answer marked degraded rather than an
//     error, whenever the deadline allows.
//   - Observability: every outcome (ok, recovered, degraded, shed,
//     deadline, canceled, error) and every engine failure kind is
//     counted in an obs.Registry, with an in-flight gauge and a
//     latency histogram.
//
// The one failure the ladder never retries is a wedged engine that
// outlives its grace window: its goroutines may still be running, so
// the Guard abandons (leaks) it rather than joining its barrier
// protocol, and a background goroutine closes it if the run ever
// returns.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/graph"
	"optibfs/internal/obs"
)

// ErrOverloaded reports that every engine slot stayed busy for the
// full queue-wait window; the query was shed without running. Callers
// should retry later (HTTP servers map it to 503 + Retry-After).
var ErrOverloaded = errors.New("serve: overloaded, query shed")

// ErrClosed reports a query against a Guard that was already Closed.
var ErrClosed = errors.New("serve: guard closed")

// ErrBadSource reports a source vertex outside the graph.
var ErrBadSource = errors.New("serve: source vertex out of range")

// ErrBadGoal reports a goal whose target vertex is outside the graph or
// whose depth bound is negative.
var ErrBadGoal = errors.New("serve: invalid goal")

// errWedged marks an engine run that outlived both its context and the
// grace window — the engine cannot be trusted or joined, only replaced.
var errWedged = errors.New("serve: engine wedged past grace window")

// Config tunes a Guard. The zero value selects the documented
// defaults.
type Config struct {
	// Algo is the BFS variant the engines run. Default core.BFSWL.
	Algo core.Algorithm
	// Options configures the engines. TrackParents is forced on (the
	// serving API answers parent queries) and StallTimeout defaults to
	// one second so the watchdog converts wedged workers into typed
	// stalls the ladder can recover from.
	Options core.Options
	// Concurrency is the engine-fleet size: the maximum number of
	// queries in flight at once. Default 2.
	Concurrency int
	// Deadline bounds a query whose caller's context carries no
	// deadline of its own. Default 5s.
	Deadline time.Duration
	// Grace is how long after a query's context expires the Guard
	// waits for the engine to come back before declaring it wedged
	// and abandoning it. Default 1s.
	Grace time.Duration
	// QueueWait is how long a query may wait for a free engine slot
	// before being shed with ErrOverloaded. 0 sheds immediately when
	// every slot is busy.
	QueueWait time.Duration
	// Registry receives the serving metrics. Nil = a private registry
	// (metrics still work, just unexported).
	Registry *obs.Registry
	// Batch configures the micro-batching fused admission queue (see
	// BatchConfig). Disabled unless Batch.Enabled is set.
	Batch BatchConfig
}

func (c Config) withDefaults() Config {
	if c.Algo == "" {
		c.Algo = core.BFSWL
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.Deadline <= 0 {
		c.Deadline = 5 * time.Second
	}
	if c.Grace <= 0 {
		c.Grace = time.Second
	}
	if c.Options.StallTimeout <= 0 {
		c.Options.StallTimeout = time.Second
	}
	c.Options.TrackParents = true
	if c.Registry == nil {
		c.Registry = obs.New()
	}
	return c
}

// slot is one engine of the fleet. Slots circulate through the
// Guard's buffered channel; a query owns at most one at a time.
// eng is nil after a failed rebuild; the next owner retries the build.
type slot struct {
	eng *core.Engine
}

// Answer is one query's result, deep-copied out of the engine's pooled
// arrays so it stays valid after the engine moves on to other queries.
type Answer struct {
	// Dist holds the BFS level per vertex (graph.Unreached if not
	// reachable).
	Dist []int32
	// Parent holds a BFS-tree parent per reached vertex.
	Parent []int32
	// Levels is the number of BFS levels explored.
	Levels int32
	// Reached is the number of vertices reached, including the source.
	Reached int64
	// EdgesTraversed is the TEPS numerator.
	EdgesTraversed int64
	// Outcome tells how the answer was produced: "ok" (first try),
	// "recovered" (retry after an engine failure), or "degraded"
	// (serial fallback).
	Outcome string
	// Algorithm is the variant that produced the answer (the serial
	// oracle when degraded).
	Algorithm core.Algorithm
	// Fused reports that the answer came out of a multi-source fused
	// run; BatchLanes is how many live lanes shared that run.
	Fused      bool
	BatchLanes int
	// Truncated reports that the run terminated at a goal (target
	// settled, or depth bound reached) rather than by frontier
	// exhaustion. Dist is exact for every closed level plus the settled
	// final frontier; deeper vertices read graph.Unreached.
	Truncated bool
}

// AsResult views the answer fields as a core.Result, the shape the
// audit contract (core.AuditAnswer) takes.
func (a *Answer) AsResult() *core.Result {
	return &core.Result{
		Dist: a.Dist, Parent: a.Parent, Levels: a.Levels, Truncated: a.Truncated,
		Reached: a.Reached, EdgesTraversed: a.EdgesTraversed,
	}
}

// Guard is the hardened serving wrapper. Safe for concurrent use.
type Guard struct {
	g     *graph.CSR
	cfg   Config
	slots chan *slot

	requests func(outcome string) *obs.Counter
	failures func(kind string) *obs.Counter
	rebuilds *obs.Counter
	inflight *obs.Gauge
	latency  *obs.Histogram

	closed    chan struct{}
	closeOnce sync.Once
	abandoned atomic.Int64 // engines declared wedged and leaked

	batch *batcher // nil unless Config.Batch.Enabled

	// Test seams for the awaitRun wedge-race regression (solo and
	// fused runs alike): ctxExpired fires after the ctx.Done() arm is
	// taken and before the grace wait; delivered fires after the run
	// goroutine's delivery attempt. Nil outside tests.
	testHookCtxExpired func()
	testHookDelivered  func()
	// testHookFusedEnqueue fires in QueryFusedGoal between the closed check and
	// the idle-slot try and admission-queue enqueue, the window a
	// concurrent Close can slip into (the reload-hang regression).
	testHookFusedEnqueue func()
}

// New builds a Guard with Concurrency warm engines over g.
func New(g *graph.CSR, cfg Config) (*Guard, error) {
	cfg = cfg.withDefaults()
	gd := &Guard{
		g:      g,
		cfg:    cfg,
		slots:  make(chan *slot, cfg.Concurrency),
		closed: make(chan struct{}),
	}
	reg := cfg.Registry
	gd.requests = func(outcome string) *obs.Counter {
		return reg.Counter("optibfs_serve_requests_total", obs.L("outcome", outcome))
	}
	gd.failures = func(kind string) *obs.Counter {
		return reg.Counter("optibfs_serve_failures_total", obs.L("kind", kind))
	}
	gd.rebuilds = reg.Counter("optibfs_serve_engine_rebuilds_total")
	gd.inflight = reg.Gauge("optibfs_serve_inflight")
	gd.latency = reg.Histogram("optibfs_serve_latency_seconds",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10})
	for i := 0; i < cfg.Concurrency; i++ {
		eng, err := core.NewEngine(g, cfg.Algo, cfg.Options)
		if err != nil {
			gd.drainAndClose(i)
			return nil, fmt.Errorf("serve: building engine %d: %w", i, err)
		}
		gd.slots <- &slot{eng: eng}
	}
	if cfg.Batch.Enabled {
		b, err := newBatcher(gd)
		if err != nil {
			gd.drainAndClose(cfg.Concurrency)
			return nil, fmt.Errorf("serve: building fused engine: %w", err)
		}
		gd.batch = b
	}
	return gd, nil
}

// Graph returns the graph the Guard serves.
func (gd *Guard) Graph() *graph.CSR { return gd.g }

// Algorithm returns the configured primary BFS variant.
func (gd *Guard) Algorithm() core.Algorithm { return gd.cfg.Algo }

// Query answers one BFS query from src under the full hardening
// policy. On success the Answer's Outcome records whether recovery or
// degradation was involved. The error is ErrOverloaded, ErrClosed,
// ErrBadSource, a context error, or — only if even the serial
// fallback failed — the underlying failure.
func (gd *Guard) Query(ctx context.Context, src int32) (*Answer, error) {
	return gd.QueryGoal(ctx, src, core.Goal{})
}

// QueryGoal is Query with a per-run goal: a target vertex whose settled
// distance terminates the run at the next level barrier, a depth bound,
// or both (whichever fires first wins). The zero Goal is exactly Query.
// A truncated Answer is exact for every closed level (Answer.Truncated
// documents the contract); the escalation ladder and the degraded
// serial fallback honor the same goal.
func (gd *Guard) QueryGoal(ctx context.Context, src int32, goal core.Goal) (*Answer, error) {
	select {
	case <-gd.closed:
		return nil, ErrClosed
	default:
	}
	if src < 0 || src >= gd.g.NumVertices() {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrBadSource, src, gd.g.NumVertices())
	}
	if err := gd.checkGoal(goal); err != nil {
		return nil, err
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, gd.cfg.Deadline)
		defer cancel()
	}

	s, err := gd.acquire(ctx)
	if err != nil {
		return nil, err
	}
	return gd.runOnSlot(ctx, s, src, goal)
}

// runOnSlot runs the ladder on an acquired slot under the per-query
// bookkeeping — in-flight gauge and latency histogram — and returns the
// slot to the fleet. Shared by QueryGoal and the fused entry point's
// idle-fleet bypass.
func (gd *Guard) runOnSlot(ctx context.Context, s *slot, src int32, goal core.Goal) (*Answer, error) {
	gd.inflight.Add(1)
	start := time.Now()
	defer func() {
		gd.inflight.Add(-1)
		gd.latency.Observe(time.Since(start).Seconds())
		gd.slots <- s
	}()
	return gd.ladder(ctx, s, src, goal)
}

// checkGoal validates a goal against the graph before any slot is
// spent on it, mapping violations to ErrBadGoal.
func (gd *Guard) checkGoal(goal core.Goal) error {
	if err := goal.Validate(gd.g.NumVertices()); err != nil {
		return fmt.Errorf("%w: %v", ErrBadGoal, err)
	}
	return nil
}

// ladder runs the escalation policy on an already-acquired slot:
// primary, retry once (on a rebuilt engine when needsRebuild), then
// the serial oracle. Shared by
// Query, the fused bypass and the batcher's solo re-runs; counts
// request outcomes.
func (gd *Guard) ladder(ctx context.Context, s *slot, src int32, goal core.Goal) (*Answer, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if s.eng == nil {
			// A previous owner's rebuild failed; retry it now.
			if rerr := gd.rebuild(s); rerr != nil {
				break
			}
		}
		ans, rerr := gd.runGuarded(ctx, s, src, goal)
		if rerr == nil {
			if attempt == 0 {
				ans.Outcome = "ok"
			} else {
				ans.Outcome = "recovered"
			}
			ans.Algorithm = gd.cfg.Algo
			gd.requests(ans.Outcome).Inc()
			return ans, nil
		}
		if !isEngineFailure(rerr) {
			// Context expiry or cancellation: not the engine's fault.
			// Surface the partial answer alongside the error.
			if ans != nil {
				ans.Outcome = outcomeForCtx(rerr)
				ans.Algorithm = gd.cfg.Algo
			}
			gd.requests(outcomeForCtx(rerr)).Inc()
			return ans, rerr
		}
		gd.failures(failureKind(rerr)).Inc()
		if needsRebuild(rerr) {
			gd.rebuild(s)
		}
		if ctx.Err() != nil {
			gd.requests(outcomeForCtx(ctx.Err())).Inc()
			return nil, ctx.Err()
		}
	}

	// Degraded mode: the serial oracle shares no state with the
	// parallel engines and cannot race, panic, or stall on them. The
	// goal rides along so a degraded s–t query still terminates early.
	sopt := core.Options{Workers: 1, TrackParents: true}
	res, serr := core.RunGoal(ctx, gd.g, src, core.Serial, sopt, goal)
	if serr != nil {
		gd.requests(outcomeForCtx(serr)).Inc()
		return copyAnswer(res), serr
	}
	ans := copyAnswer(res)
	ans.Outcome = "degraded"
	ans.Algorithm = core.Serial
	gd.requests("degraded").Inc()
	return ans, nil
}

// acquire obtains an engine slot, shedding with ErrOverloaded once
// QueueWait expires (immediately when QueueWait is 0).
func (gd *Guard) acquire(ctx context.Context) (*slot, error) {
	select {
	case s := <-gd.slots:
		return s, nil
	default:
	}
	if gd.cfg.QueueWait <= 0 {
		gd.requests("shed").Inc()
		return nil, ErrOverloaded
	}
	t := time.NewTimer(gd.cfg.QueueWait)
	defer t.Stop()
	select {
	case s := <-gd.slots:
		return s, nil
	case <-ctx.Done():
		gd.requests(outcomeForCtx(ctx.Err())).Inc()
		return nil, ctx.Err()
	case <-t.C:
		gd.requests("shed").Inc()
		return nil, ErrOverloaded
	}
}

// runGuarded executes one solo engine run under awaitRun, dropping
// the slot's engine if the run wedges (the zombie goroutine closes it).
func (gd *Guard) runGuarded(ctx context.Context, s *slot, src int32, goal core.Goal) (*Answer, error) {
	eng := s.eng
	ans, err := awaitRun(gd, ctx, func() (*Answer, error) {
		res, err := eng.RunGoal(ctx, src, goal)
		return copyAnswer(res), err
	}, eng.Close)
	if err == errWedged {
		s.eng = nil
	}
	return ans, err
}

// awaitRun executes one engine run on its own goroutine so the Guard
// can abandon it if it wedges; solo slots and the fused batcher share
// it. The result channel is buffered (cap 1) so the run goroutine's
// send always lands, and an atomic handoff word decides who owns the
// engine's fate: the goroutine commits "delivered" after its send, the
// parent commits "abandoned" when the grace window expires. Exactly
// one CAS wins. A run that completes in the window between the
// parent's ctx.Done() arm and its grace wait parks its answer in the
// buffer and the parent's grace select receives it immediately,
// instead of the answer being lost, the healthy engine torn down, and
// the full Grace window burned into a spurious errWedged.
//
// On errWedged the engine is abandoned, NOT closed — its goroutines may
// be live inside the barrier protocol — and the run goroutine calls
// closeEng if the run ever returns; the caller must drop its reference.
func awaitRun[T any](gd *Guard, ctx context.Context, run func() (T, error), closeEng func()) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	const (
		handPending int32 = iota
		handDelivered
		handAbandoned
	)
	ch := make(chan outcome, 1)
	var hand atomic.Int32
	go func() {
		v, err := run()
		ch <- outcome{v, err} // cap 1: never blocks
		if !hand.CompareAndSwap(handPending, handDelivered) {
			// The parent already abandoned the run: it will never read
			// the buffered outcome, and this goroutine owns the corpse.
			// Closing here is safe — the run has returned.
			closeEng()
		}
		if gd.testHookDelivered != nil {
			gd.testHookDelivered()
		}
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-ctx.Done():
	}
	if gd.testHookCtxExpired != nil {
		gd.testHookCtxExpired()
	}
	// The context expired mid-run. The watchdog (StallTimeout) aborts
	// the run cooperatively; give it Grace to come back.
	t := time.NewTimer(gd.cfg.Grace)
	defer t.Stop()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-t.C:
	}
	if !hand.CompareAndSwap(handPending, handAbandoned) {
		// The run finished just as the grace timer fired: the outcome
		// is already in the buffer (the send happens-before the losing
		// CAS observed here). Take it — the answer is real and the
		// engine is healthy.
		out := <-ch
		return out.v, out.err
	}
	gd.abandoned.Add(1)
	var zero T
	return zero, errWedged
}

// Abandoned reports how many engines this Guard has declared wedged
// and leaked over its lifetime. A wedged engine's goroutines may still
// be reading the graph after Close returns, so an owner that backs the
// graph with externally managed storage (an mmap, say) must not
// reclaim that storage while this is nonzero.
func (gd *Guard) Abandoned() int64 { return gd.abandoned.Load() }

// rebuild replaces the slot's engine with a fresh one. The old engine
// is closed unless it was abandoned as wedged (s.eng == nil), in which
// case the zombie run goroutine owns closing it.
func (gd *Guard) rebuild(s *slot) error {
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
	eng, err := core.NewEngine(gd.g, gd.cfg.Algo, gd.cfg.Options)
	if err != nil {
		return err
	}
	s.eng = eng
	gd.rebuilds.Inc()
	return nil
}

// Close shuts the Guard: new queries fail with ErrClosed, and Close
// blocks until every in-flight query returns its slot, then closes the
// engines. Idempotent: repeated and concurrent calls are safe; every
// caller returns only after the one real shutdown has completed.
func (gd *Guard) Close() {
	gd.closeOnce.Do(func() {
		close(gd.closed)
		if gd.batch != nil {
			gd.batch.close()
		}
		gd.drainAndClose(gd.cfg.Concurrency)
	})
}

// drainAndClose collects n circulating slots — blocking on slots held
// by in-flight queries until they are returned — and closes their
// engines. Close passes the full fleet size; New's construction-
// failure path passes however many engines it managed to build.
func (gd *Guard) drainAndClose(n int) {
	for i := 0; i < n; i++ {
		s := <-gd.slots
		if s.eng != nil {
			s.eng.Close()
		}
	}
}

// isEngineFailure reports whether err indicts the engine itself —
// the failures worth a rebuild-and-retry — rather than the caller's
// context.
func isEngineFailure(err error) bool {
	var wp *core.WorkerPanicError
	var se *core.StallError
	return errors.As(err, &wp) || errors.As(err, &se) ||
		errors.Is(err, core.ErrPoisoned) || errors.Is(err, errWedged)
}

// needsRebuild reports whether an engine failure leaves the engine
// unfit to run again: a worker panic poisons it and a wedged run
// abandons it. A stall aborts cooperatively — the workers wind down
// through their normal barriers (core's recover.go) — so a stalled
// engine is structurally sound and the retry reuses it.
func needsRebuild(err error) bool {
	var wp *core.WorkerPanicError
	return errors.As(err, &wp) || errors.Is(err, core.ErrPoisoned) || errors.Is(err, errWedged)
}

// failureKind labels an engine failure for the failures_total metric.
func failureKind(err error) string {
	var wp *core.WorkerPanicError
	var se *core.StallError
	switch {
	case errors.As(err, &wp):
		return "panic"
	case errors.As(err, &se):
		return "stall"
	case errors.Is(err, core.ErrPoisoned):
		return "poisoned"
	case errors.Is(err, errWedged):
		return "wedged"
	}
	return "other"
}

// outcomeForCtx labels a context-induced failure for requests_total.
func outcomeForCtx(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return "error"
}

// copyAnswer deep-copies a Result's query-relevant fields out of the
// engine's pooled arrays. Nil res (a run that aborted before settling
// anything) yields nil.
func copyAnswer(res *core.Result) *Answer {
	if res == nil {
		return nil
	}
	a := &Answer{
		Levels:         res.Levels,
		Reached:        res.Reached,
		EdgesTraversed: res.EdgesTraversed,
		Truncated:      res.Truncated,
	}
	a.Dist = append([]int32(nil), res.Dist...)
	if res.Parent != nil {
		a.Parent = append([]int32(nil), res.Parent...)
	}
	return a
}
