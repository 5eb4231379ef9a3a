// Micro-batching fused admission: concurrent queries against the same
// graph are collected for a short window, packed into the lanes of one
// MS-BFS run, and demuxed back into per-caller Answers. One fused
// traversal over the shared edge set replaces up to 64 solo
// traversals, so aggregate throughput scales with occupancy even on a
// single core.
//
// Admission is work-conserving: a query that finds a solo engine free
// runs on it at once through the normal ladder and never waits for a
// window. Only the overflow — queries that find the whole fleet busy —
// queues to fuse. Fusion pays off when lanes would otherwise queue; an
// idle engine answering one query beats parking it for a window and
// then running a lightly occupied fused traversal.
//
// Failure policy mirrors the solo ladder, lifted to batch granularity:
// a lane whose caller cancels before dispatch is masked out of the
// batch (the others still run); an engine failure — panic, poison,
// stall, wedge — fails the whole batch, the fused engine is rebuilt,
// and every still-live lane is re-run solo through the Guard's normal
// escalation ladder; a context expiry (batch deadline, or every caller
// gone) demuxes per-lane partial answers alongside the error.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/obs"
)

// BatchConfig tunes the fused admission queue.
type BatchConfig struct {
	// Enabled turns micro-batching on; Guard.QueryFused falls back to
	// solo Query when off.
	Enabled bool
	// Window is how long the dispatcher collects lanes after the first
	// queued request arrives before dispatching a partial batch. Only a
	// query that found every solo engine busy queues, so a query on an
	// idle fleet never waits for it. Default 1ms.
	Window time.Duration
	// MaxLanes caps the lanes per fused run. Default and ceiling
	// core.MaxLanes (64).
	MaxLanes int
	// Queue bounds the pending-request buffer; when it is full,
	// QueryFused degrades to solo dispatch instead of blocking.
	// Default 256.
	Queue int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.Window <= 0 {
		c.Window = time.Millisecond
	}
	if c.MaxLanes <= 0 || c.MaxLanes > core.MaxLanes {
		c.MaxLanes = core.MaxLanes
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	return c
}

// fusedResp is what a batched caller receives: the demuxed Answer (or
// a solo-ladder Answer after a batch failure), the error, and whether
// the responder already counted the request outcome (solo re-runs go
// through the ladder, which counts internally).
type fusedResp struct {
	ans     *Answer
	err     error
	counted bool
}

// fusedReq is one caller's seat in the admission queue. out is
// buffered (cap 1) so the dispatcher's response never blocks on a
// caller that gave up.
type fusedReq struct {
	ctx  context.Context
	src  int32
	goal core.Goal
	out  chan fusedResp
}

// batcher owns the fused engine and the single dispatcher goroutine.
// The engine is confined to the dispatcher; like the solo slots, a
// wedged fused run is abandoned (the zombie goroutine closes it) and
// the next batch gets a fresh engine.
type batcher struct {
	gd  *Guard
	cfg BatchConfig

	reqs   chan *fusedReq
	closed chan struct{}
	done   chan struct{}

	eng *core.MSEngine // dispatcher-confined; nil after wedge abandon

	occupancy    *obs.Histogram
	batches      *obs.Counter
	lanes        *obs.Counter
	seconds      *obs.Histogram
	soloRerun    *obs.Counter
	soloDispatch *obs.Counter
	bypass       *obs.Counter
	ffailures    func(kind string) *obs.Counter

	scratch []*fusedReq
}

func newBatcher(gd *Guard) (*batcher, error) {
	cfg := gd.cfg.Batch.withDefaults()
	eng, err := core.NewMSEngine(gd.g, gd.cfg.Options)
	if err != nil {
		return nil, err
	}
	reg := gd.cfg.Registry
	b := &batcher{
		gd:     gd,
		cfg:    cfg,
		reqs:   make(chan *fusedReq, cfg.Queue),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
		eng:    eng,
		occupancy: reg.Histogram("optibfs_serve_batch_lanes",
			[]float64{1, 2, 4, 8, 16, 32, 48, 64}),
		batches: reg.Counter("optibfs_serve_fused_batches_total"),
		lanes:   reg.Counter("optibfs_serve_fused_lanes_total"),
		// sum/count of fused wall time: with the solo latency histogram
		// this yields the fused-vs-solo aggregate speedup.
		seconds: reg.Histogram("optibfs_serve_fused_batch_seconds",
			[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}),
		soloRerun: reg.Counter("optibfs_serve_fused_solo_reruns_total"),
		// A batch that collapsed to one live lane skips the fused engine
		// entirely: the lane-major MS-BFS layout costs ~13% over the solo
		// word-per-vertex kernels at occupancy 1, so a singleton window
		// dispatches through the Guard's solo fleet instead.
		soloDispatch: reg.Counter("optibfs_serve_fused_solo_dispatch_total"),
		// Queries the fused entry point handed straight to an idle solo
		// engine: a near-zero fused share under light load is policy.
		bypass: reg.Counter("optibfs_serve_fused_bypass_total"),
		ffailures: func(kind string) *obs.Counter {
			return reg.Counter("optibfs_serve_fused_failures_total", obs.L("kind", kind))
		},
		scratch: make([]*fusedReq, 0, cfg.MaxLanes),
	}
	go b.loop()
	return b, nil
}

// close stops the dispatcher and waits for it to finish any in-flight
// batch and drain queued requests with ErrClosed. Called exactly once,
// from Guard.Close's sync.Once.
func (b *batcher) close() {
	close(b.closed)
	<-b.done
	if b.eng != nil {
		b.eng.Close()
	}
}

// QueryFused answers one BFS query through work-conserving fused
// admission. A free solo engine answers it at once (Answer.Fused
// false, BatchLanes 0). When the whole fleet is busy the call parks
// for up to BatchConfig.Window while other concurrent sources join,
// then shares one fused MS-BFS run. Semantics match Query — same
// outcomes, same errors, same partial-answer-on-expiry contract — plus
// Answer.Fused/BatchLanes reporting the sharing. Falls back to solo
// Query when batching is disabled or the admission queue is full.
func (gd *Guard) QueryFused(ctx context.Context, src int32) (*Answer, error) {
	return gd.QueryFusedGoal(ctx, src, core.Goal{})
}

// QueryFusedGoal is QueryFused with a per-lane goal: the lane retires
// from the fused run at the level barrier where its target settles or
// its depth bound is reached, and its Answer demuxes the exact
// truncated result (see Answer.Truncated). Other lanes keep running.
func (gd *Guard) QueryFusedGoal(ctx context.Context, src int32, goal core.Goal) (*Answer, error) {
	if gd.batch == nil {
		return gd.QueryGoal(ctx, src, goal)
	}
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
	if gd.testHookFusedEnqueue != nil {
		gd.testHookFusedEnqueue()
	}
	// Work-conserving admission (see the package comment): a free solo
	// engine answers at once; only fleet overflow parks to fuse.
	select {
	case s := <-gd.slots:
		gd.batch.bypass.Inc()
		return gd.runOnSlot(ctx, s, src, goal)
	default:
	}
	r := &fusedReq{ctx: ctx, src: src, goal: goal, out: make(chan fusedResp, 1)}
	select {
	case gd.batch.reqs <- r:
	default:
		// Admission queue saturated: shed to the solo path rather than
		// stacking unbounded latency behind the dispatcher.
		return gd.QueryGoal(ctx, src, goal)
	}
	gd.inflight.Add(1)
	start := time.Now()
	defer func() {
		gd.inflight.Add(-1)
		gd.latency.Observe(time.Since(start).Seconds())
	}()
	done := gd.batch.done
wait:
	for {
		select {
		case resp := <-r.out:
			return gd.finishFused(resp)
		case <-done:
			// The dispatcher has exited. A Close that landed between the
			// closed check above and the enqueue found the queue empty,
			// so r may be stranded in it with nobody left to answer.
			// Drain the stragglers ourselves: r either gets ErrClosed
			// here or was already taken, and then its answer is on its
			// way (a singleton's solo re-run outlives the dispatcher).
			gd.batch.drainPending()
			done = nil
		case <-ctx.Done():
			break wait
		}
	}
	// The caller's budget expired while parked or mid-batch. Mirror the
	// solo path's grace window: give the dispatcher Grace to flush this
	// lane's response — typically the partial demux of an aborting
	// batch — before walking away from the seat.
	t := time.NewTimer(gd.cfg.Grace)
	defer t.Stop()
	select {
	case resp := <-r.out:
		return gd.finishFused(resp)
	case <-t.C:
		gd.requests(outcomeForCtx(ctx.Err())).Inc()
		return nil, ctx.Err()
	}
}

// finishFused counts and unwraps one batched response. Solo re-runs
// after a batch failure were already counted inside the ladder.
func (gd *Guard) finishFused(resp fusedResp) (*Answer, error) {
	if !resp.counted {
		switch {
		case resp.err == nil:
			gd.requests(resp.ans.Outcome).Inc()
		case errors.Is(resp.err, ErrClosed):
			// close raced admission; not a traffic outcome.
		default:
			gd.requests(outcomeForCtx(resp.err)).Inc()
		}
	}
	return resp.ans, resp.err
}

// loop is the dispatcher: collect a batch, run it fused, respond, and
// repeat until close.
func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.closed:
			b.drainPending()
			return
		case r := <-b.reqs:
			b.dispatch(b.collect(r))
		}
	}
}

// collect gathers lanes for the window that starts at the first
// request, stopping early at MaxLanes.
func (b *batcher) collect(first *fusedReq) []*fusedReq {
	batch := append(b.scratch[:0], first)
	t := time.NewTimer(b.cfg.Window)
	defer t.Stop()
	for len(batch) < b.cfg.MaxLanes {
		select {
		case r := <-b.reqs:
			batch = append(batch, r)
		case <-t.C:
			return batch
		case <-b.closed:
			// Dispatch what we have; the loop exits on its next pass.
			return batch
		}
	}
	return batch
}

// dispatch runs one batch fused and responds to every lane.
func (b *batcher) dispatch(batch []*fusedReq) {
	// Mask out lanes whose callers are already gone: they cost a reply,
	// not a lane.
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.out <- fusedResp{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		// Singleton window: the fused engine's lane-major visited words
		// and per-entry mask merges cost real time that sharing normally
		// amortizes — at occupancy 1 there is nothing to share, and the
		// solo kernels are measurably faster. Hand the lane to the
		// Guard's solo fleet on its own goroutine so the dispatcher can
		// keep collecting the next window.
		r := live[0]
		b.batches.Inc()
		b.lanes.Inc()
		b.occupancy.Observe(1)
		b.soloDispatch.Inc()
		go func() {
			ans, err := b.gd.rerunSolo(r.ctx, r.src, r.goal)
			if ans != nil {
				ans.BatchLanes = 1
			}
			r.out <- fusedResp{ans: ans, err: err, counted: true}
		}()
		return
	}

	// The batch context: lives until the latest caller deadline (every
	// fused req carries one), and is canceled early once every caller
	// has walked away.
	var latest time.Time
	for _, r := range live {
		if dl, ok := r.ctx.Deadline(); ok && dl.After(latest) {
			latest = dl
		}
	}
	var bctx context.Context
	var cancel context.CancelFunc
	if latest.IsZero() {
		bctx, cancel = context.WithCancel(context.Background())
	} else {
		bctx, cancel = context.WithDeadline(context.Background(), latest)
	}
	defer cancel()
	var gone atomic.Int32
	need := int32(len(live))
	stops := make([]func() bool, 0, len(live))
	for _, r := range live {
		stops = append(stops, context.AfterFunc(r.ctx, func() {
			if gone.Add(1) == need {
				cancel() // nobody is waiting: abort the fused run
			}
		}))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	b.batches.Inc()
	b.lanes.Add(int64(len(live)))
	b.occupancy.Observe(float64(len(live)))

	srcs := make([]int32, len(live))
	var goals []core.Goal
	for i, r := range live {
		srcs[i] = r.src
		if r.goal.Bounded() {
			if goals == nil {
				goals = make([]core.Goal, len(live))
			}
			goals[i] = r.goal
		}
	}
	start := time.Now()
	res, err := b.runFused(bctx, srcs, goals)
	b.seconds.Observe(time.Since(start).Seconds())

	switch {
	case err == nil:
		for i, r := range live {
			ans := laneAnswer(res.Lane(i), len(live))
			ans.Outcome = "ok"
			r.out <- fusedResp{ans: ans}
		}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The batch context expired or every caller left: demux per-lane
		// partial answers, each tagged with its own caller's error when
		// set (the batch error otherwise).
		for i, r := range live {
			rerr := r.ctx.Err()
			if rerr == nil {
				rerr = err
			}
			var ans *Answer
			if res != nil {
				ans = laneAnswer(res.Lane(i), len(live))
				ans.Outcome = outcomeForCtx(rerr)
			}
			r.out <- fusedResp{ans: ans, err: rerr}
		}
	default:
		// Engine failure: the fused run cannot be trusted for any lane.
		// Count it, replace the engine, and walk every surviving lane
		// through the solo ladder.
		b.ffailures(failureKind(err)).Inc()
		b.rebuildFused(err)
		for _, r := range live {
			if cerr := r.ctx.Err(); cerr != nil {
				r.out <- fusedResp{err: cerr}
				continue
			}
			b.soloRerun.Inc()
			ans, serr := b.gd.rerunSolo(r.ctx, r.src, r.goal)
			r.out <- fusedResp{ans: ans, err: serr, counted: true}
		}
	}
}

// runFused executes one fused run under awaitRun, the abandon-on-wedge
// protocol solo slots use: exactly one party closes a wedged engine.
func (b *batcher) runFused(ctx context.Context, srcs []int32, goals []core.Goal) (*core.MSResult, error) {
	if b.eng == nil {
		eng, err := core.NewMSEngine(b.gd.g, b.gd.cfg.Options)
		if err != nil {
			return nil, err
		}
		b.gd.rebuilds.Inc()
		b.eng = eng
	}
	eng := b.eng
	res, err := awaitRun(b.gd, ctx, func() (*core.MSResult, error) {
		return eng.RunGoals(ctx, srcs, goals)
	}, eng.Close)
	if err == errWedged {
		b.eng = nil
	}
	return res, err
}

// rebuildFused discards the failed fused engine (unless it was
// abandoned as wedged, in which case the zombie goroutine owns it) and
// builds a replacement eagerly so the next batch starts warm.
func (b *batcher) rebuildFused(cause error) {
	if b.eng != nil && !errors.Is(cause, errWedged) {
		b.eng.Close()
	}
	b.eng = nil
	if eng, err := core.NewMSEngine(b.gd.g, b.gd.cfg.Options); err == nil {
		b.eng = eng
		b.gd.rebuilds.Inc()
	}
}

// rerunSolo pushes one surviving lane of a failed batch through the
// normal solo ladder. Unlike Query it never sheds: the caller already
// paid admission latency, so it waits for a slot until its context
// expires.
func (gd *Guard) rerunSolo(ctx context.Context, src int32, goal core.Goal) (*Answer, error) {
	var s *slot
	select {
	case s = <-gd.slots:
	case <-ctx.Done():
		gd.requests(outcomeForCtx(ctx.Err())).Inc()
		return nil, ctx.Err()
	}
	defer func() { gd.slots <- s }()
	return gd.ladder(ctx, s, src, goal)
}

// drainPending answers everything still queued at close with ErrClosed.
// Safe to run concurrently: each receive hands a request to exactly one
// drainer, so every request still gets exactly one reply.
func (b *batcher) drainPending() {
	for {
		select {
		case r := <-b.reqs:
			r.out <- fusedResp{err: ErrClosed}
		default:
			return
		}
	}
}

// laneAnswer deep-copies one lane's view out of the fused engine's
// pooled lane-major arrays into a self-contained Answer.
func laneAnswer(lr *core.LaneResult, batchLanes int) *Answer {
	a := &Answer{
		Levels:         lr.Levels,
		Reached:        lr.Reached,
		EdgesTraversed: lr.EdgesTraversed,
		Algorithm:      core.MSBFSL,
		Fused:          true,
		BatchLanes:     batchLanes,
		Truncated:      lr.Truncated,
	}
	a.Dist = append([]int32(nil), lr.Dist...)
	if lr.Parent != nil {
		a.Parent = append([]int32(nil), lr.Parent...)
	}
	return a
}
