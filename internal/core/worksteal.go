package core

import (
	"sync"
	"sync/atomic"

	"optibfs/internal/rng"
	"optibfs/internal/stats"
)

// minStealSize is the smallest segment worth splitting: with fewer than
// two remaining vertices the thief's half would be empty.
const minStealSize = 2

// segDesc is one worker's published segment descriptor: the queue id q
// its current segment lives in, and the segment's front and rear. In
// the lockfree variants thieves read (q, f, r) with plain atomic loads
// — possibly observing a torn *combination* (each load is itself
// untorn) — and write r with a plain relaxed store; the thief-side
// sanity check f' < r' <= origR(q') rejects inconsistent combinations
// (paper §IV-B2). In the locked variants mu protects the descriptor
// and thieves use TryLock so their wait time is O(1).
type segDesc struct {
	mu   sync.Mutex
	q    int64 // atomic in lockfree mode
	f    int64
	r    int64
	idle int32    // 1 once the worker quit the current level/phase
	_    [28]byte // pad to 64 bytes so descriptors do not false-share
}

// wsContext is the per-level shared state of the work-stealing runs.
type wsContext struct {
	descs []segDesc
	// Scale-free phase-2 inputs: hot[i] holds worker i's deferred
	// high-degree vertices; filled in phase 1, read-only in phase 2.
	hot [][]int32
	// phase2Cursor dispatches (vertex, chunk) units in the
	// Phase2Stealing variant; advanced with optimistic load/store in
	// lockfree mode and under phase2Mu in locked mode.
	phase2Cursor int64
	phase2Mu     sync.Mutex
	barrier      *barrier
}

// bindWorkSteal builds the binding constructor for BFS_W / BFS_WL
// (scaleFree=false) and BFS_WS / BFS_WSL (scaleFree=true), §IV-B. The
// per-worker wsWorker structs, descriptors, RNG streams, and closures
// are all built once per engine — the old per-level &wsWorker{} would
// otherwise be the work-stealing family's last steady-state allocation.
func bindWorkSteal(locked, scaleFree bool) bindFunc {
	return func(st *state) binding {
		// Lockfree draining zeroes every slot it pops, so the per-level
		// unconsumed-slot audit applies; locked draining consumes via the
		// descriptor front and leaves slots intact.
		st.slotAudit = !locked
		opt := st.opt
		p := opt.Workers

		threshold := opt.HighDegreeThreshold
		if scaleFree && threshold <= 0 {
			threshold = int64(4 * st.g.AvgDegree())
			if threshold < 64 {
				threshold = 64
			}
		}

		ctx := &wsContext{
			descs:   make([]segDesc, p),
			barrier: newBarrier(p),
		}
		if scaleFree {
			ctx.hot = make([][]int32, p)
			for i := range ctx.hot {
				ctx.hot[i] = make([]int32, 0, 64)
			}
		}
		rngs := make([]*rng.Xoshiro256, p)
		workers := make([]wsWorker, p)
		for i := range rngs {
			rngs[i] = rng.NewXoshiro256(opt.Seed ^ rng.Mix64(uint64(i)+0x5151))
			workers[i] = wsWorker{
				st: st, ctx: ctx, id: i, locked: locked,
				c: &st.counters[i].Counters, r: rngs[i],
				threshold: threshold,
			}
		}
		maxStealAttempts := maxSteal(opt.MaxStealFactor, p)

		setup := func() {
			for i := range ctx.descs {
				d := &ctx.descs[i]
				atomic.StoreInt64(&d.q, int64(i))
				atomic.StoreInt64(&d.f, 0)
				atomic.StoreInt64(&d.r, st.in[i].origR)
				atomic.StoreInt32(&d.idle, 0)
			}
			if scaleFree {
				for i := range ctx.hot {
					ctx.hot[i] = ctx.hot[i][:0]
				}
			}
			atomic.StoreInt64(&ctx.phase2Cursor, 0)
		}

		perLevel := func(id int) {
			w := &workers[id]
			w.out = st.blk[id]
			w.phase1(maxStealAttempts)
			if scaleFree {
				ctx.barrier.wait()
				// Skip phase 2 after an abort: on a panic abort the
				// barrier was poisoned open, so phase 1 may still be in
				// flight somewhere and the hot lists must not be read;
				// the engine is poisoned anyway. Workers that passed the
				// barrier normally all finished phase 1 first, as usual.
				if !st.aborted() {
					w.phase2()
				}
			}
			// Level-barrier flush: publish the partial discovery block
			// before quiescing (after phase 2, which also discovers).
			st.blk[id] = st.endLevelOut(id, w.out)
		}

		if scaleFree {
			// A worker that panics before reaching the phase barrier
			// would strand its peers there forever; the panic abort
			// poisons the barrier open (the engine is discarded after).
			st.ctl.hooks = append(st.ctl.hooks, ctx.barrier.poison)
		}

		return binding{setup: setup, perLevel: perLevel, rngs: rngs, rngSalt: 0x5151}
	}
}

// wsWorker bundles one worker's view of a work-stealing level.
type wsWorker struct {
	st        *state
	ctx       *wsContext
	id        int
	locked    bool
	c         *stats.Counters
	r         *rng.Xoshiro256
	threshold int64 // 0 when not in scale-free mode
	out       []int32
	flat      []int32 // pooled phase-2 unit buffer (Phase2Stealing only)
}

// process explores popped vertex v from queue qid, or defers it to
// phase 2 if it is a scale-free hot spot.
func (w *wsWorker) process(qid int, v int32) {
	w.c.VerticesPopped++
	if !w.st.claimAllows(qid, v) {
		return
	}
	if w.threshold > 0 && w.st.g.OutDegree(v) >= w.threshold {
		w.ctx.hot[w.id] = append(w.ctx.hot[w.id], v)
		w.c.HotVertices++
		return
	}
	nb := w.st.g.Neighbors(v)
	w.c.EdgesScanned += int64(len(nb))
	w.out = w.st.scanNeighbors(w.id, v, nb, w.out)
}

// phase1 runs the work-stealing loop for one level: drain own segment,
// then steal halves from random victims until MAX_STEAL consecutive
// failures (paper: c·p·log2(p), from the balls-and-bins bound).
func (w *wsWorker) phase1(maxStealAttempts int) {
	d := &w.ctx.descs[w.id]
	w.drainOwn(d)
	p := w.st.opt.Workers
	if p == 1 {
		w.setIdle(d)
		return
	}
	fails := 0
	for fails < maxStealAttempts {
		if w.st.aborted() {
			break
		}
		victim := w.pickVictim()
		w.c.StealAttempts++
		ok := false
		if w.locked {
			ok = w.stealLocked(victim, d)
		} else {
			ok = w.stealLockfree(victim, d)
		}
		if ok {
			w.c.StealSuccess++
			fails = 0
			w.drainOwn(d)
		} else {
			fails++
			// Let a potential victim make progress before retrying
			// (only when oversubscribed; no-op on real multicore).
			w.st.maybeYield()
		}
	}
	w.setIdle(d)
}

// yieldEvery is the pop granularity at which an oversubscribed worker
// offers its thread to peers while draining a segment.
const yieldEvery = 16

// stealCheckPeriod is how many pops a lockfree drain batches between
// publications of its shared front index. Publishing every pop put a
// shared store (and its coherence miss for any watching thief) on the
// per-vertex path; deferring it only *understates* the front, which the
// protocol already tolerates — a thief that halves the unpublished
// region either lands on unspent slots (duplicate-free, it pops what
// the victim would have) or on zeroed ones and takes the stale-steal
// exit. The final front is still published before the drain returns.
const stealCheckPeriod = 32

// drainOwn explores the worker's current segment.
//
// Lockfree mode reproduces the paper's protocol exactly: read a slot,
// clear it, publish the advanced front, explore; stop only at a 0 slot
// — never by checking the (possibly thief-modified) rear — so stolen-
// ahead regions produce at most duplicate work and nothing is skipped.
// States that pass lean() — parent tracking included — run it as the
// fused drainOwnLean; the loop here serves chaos hooks, ParentClaim and
// sharded engines.
// Locked mode lives in drainOwnLocked, so this function's machine code
// holds no locked instruction at all (normw_amd64_test.go checks it).
func (w *wsWorker) drainOwn(d *segDesc) {
	w.st.beat(w.id)
	if w.locked {
		w.drainOwnLocked(d)
		return
	}
	qi := atomic.LoadInt64(&d.q)
	buf := w.st.in[qi].buf
	j := atomic.LoadInt64(&d.f)
	if w.st.lean() {
		storeRelaxed64(&d.f, w.drainOwnLean(d, buf, j))
		return
	}
	popped := 0
	// The shared front is published once per stealCheckPeriod pops
	// instead of once per pop (see the constant's comment); published
	// tracks the last value actually stored to d.f.
	published := j
	for {
		slot := atomic.LoadInt32(&buf[j])
		if slot == emptySlot {
			if j != published {
				w.st.chaosAt(ChaosDrainAdvance, w.id, j)
				storeRelaxed64(&d.f, j)
			}
			return
		}
		w.st.chaosAt(ChaosSlotZero, w.id, j)
		storeRelaxed32(&buf[j], emptySlot)
		j++
		if j-published >= stealCheckPeriod {
			w.st.chaosAt(ChaosDrainAdvance, w.id, j)
			storeRelaxed64(&d.f, j)
			published = j
			w.st.beat(w.id)
			if w.st.aborted() {
				// The front was just published, so a cooperative exit
				// here leaves the descriptor accurate; remaining slots
				// stay unconsumed, which only an aborted run permits.
				return
			}
		}
		// Peek the next slot (atomic: a concurrent thief's drain zeroes
		// slots) and warm its vertex's CSR offsets before the current
		// vertex's adjacency scan hides the latency.
		if nxt := atomic.LoadInt32(&buf[j]); nxt != emptySlot {
			w.st.prefetchVertex(nxt - 1)
		}
		w.process(int(qi), slot-1)
		if popped++; popped%yieldEvery == 0 {
			w.st.maybeYield()
		}
	}
}

// drainOwnLocked is drainOwn for the locked variants: the front
// advances under the worker's own mutex and the rear is checked,
// because locking makes it trustworthy. The victim reserves LockBatch
// vertices per acquisition so the mutex stays off the per-vertex path;
// thieves steal from the unreserved remainder [f, r).
func (w *wsWorker) drainOwnLocked(d *segDesc) {
	batch := int64(w.st.opt.LockBatch)
	popped := 0
	for {
		d.mu.Lock()
		w.c.LockAcquisitions++
		if d.f >= d.r {
			d.mu.Unlock()
			return
		}
		take := batch
		if rem := d.r - d.f; take > rem {
			take = rem
		}
		qi, start := d.q, d.f
		d.f += take
		d.mu.Unlock()
		buf := w.st.in[qi].buf
		for j := start; j < start+take; j++ {
			if j+1 < start+take {
				// Warm the next vertex's CSR offsets while this one's
				// adjacency is scanned (locked mode leaves slots intact,
				// so the peek is a plain read).
				w.st.prefetchVertex(buf[j+1] - 1)
			}
			w.process(int(qi), buf[j]-1)
		}
		popped += int(take)
		w.st.beat(w.id)
		if w.st.aborted() {
			return
		}
		if popped >= yieldEvery {
			popped = 0
			w.st.maybeYield()
		}
	}
}

// drainOwnLean is drainOwn's fused loop, the lockfree drain at every
// worker count for states that pass lean() (the caller checks). It
// keeps the general loop's slot ledger, publication cadence,
// heartbeats, abort checks and hot-vertex deferral, but inlines the pop → scan → claim chain that the general
// loop pays three calls for per vertex; long rows still go through
// scanNeighborsLean's prefetch pipeline. Its inline claim stores the
// popped vertex as parent between the dist and epoch stores when parent
// tracking is on, as discover does. Every lookaheadBatch slots it
// touches the offsets of the batch after next and the row heads of the
// next batch. Returns the final front, which the caller publishes.
func (w *wsWorker) drainOwnLean(d *segDesc, buf []int32, j int64) int64 {
	st := w.st
	epoch, dist, parent := st.epoch, st.dist, st.parent
	cur, lvl := st.cur, st.level+1
	goff, gedges := st.g.Offsets, st.g.Edges
	threshold := w.threshold
	c := w.c
	out := w.out
	blk := st.blkSize
	published := j
	popped := 0
	// Prime: offsets two batches deep, row heads one.
	const b = lookaheadBatch
	lookahead(goff, gedges, buf, j, 2*b, false)
	lookahead(goff, gedges, buf, j, b, true)
	for next := j; ; {
		if j == next { // batch boundary: warm the next two batches
			next += b
			lookahead(goff, gedges, buf, next, b, true)
			lookahead(goff, gedges, buf, next+b, b, false)
		}
		slot := atomic.LoadInt32(&buf[j])
		if slot == emptySlot {
			break
		}
		storeRelaxed32(&buf[j], emptySlot)
		j++
		if j-published >= stealCheckPeriod {
			storeRelaxed64(&d.f, j)
			published = j
			st.beat(w.id)
			if st.aborted() {
				break
			}
		}
		v := slot - 1
		c.VerticesPopped++
		o0, o1 := goff[v], goff[v+1]
		switch {
		case threshold > 0 && o1-o0 >= threshold:
			w.ctx.hot[w.id] = append(w.ctx.hot[w.id], v)
			c.HotVertices++
		case o1-o0 > 2*prefetchWindow:
			c.EdgesScanned += o1 - o0
			out = st.scanNeighborsLean(w.id, v, gedges[o0:o1], out)
		default:
			c.EdgesScanned += o1 - o0
			for _, x := range gedges[o0:o1] {
				if atomic.LoadUint32(&epoch[x]) != cur {
					storeRelaxed32(&dist[x], lvl)
					if parent != nil {
						storeRelaxed32(&parent[x], v)
					}
					storeRelaxedU32(&epoch[x], cur)
					c.Discovered++
					out = append(out, x+1)
					if len(out) >= blk {
						out = st.flushBlock(w.id, out)
					}
				}
			}
		}
		if popped++; popped%yieldEvery == 0 {
			st.maybeYield()
		}
	}
	w.out = out
	return j
}

// lookaheadBatch is drainOwnLean's lookahead batch. A pop's chain slot
// → Offsets[v] → Edges[Offsets[v]] → epoch is a run of dependent
// misses; a batch of independent loads overlaps them.
const lookaheadBatch = 16

// lookahead touches Offsets[v] (or, with heads, the row head
// Edges[Offsets[v]]) for the vertices in slots [at, at+n), stopping at
// the first empty slot or the end of buf: a slot a thief zeroed only
// ends it early. The loads are atomic so the compiler keeps them. Not
// inlined: the batch-boundary code stays out of the per-pop loop.
//
//go:noinline
func lookahead(goff []int64, gedges, buf []int32, at, n int64, heads bool) {
	for k := at; k < at+n && k < int64(len(buf)); k++ {
		s := atomic.LoadInt32(&buf[k])
		if s == emptySlot {
			return
		}
		if !heads {
			_ = atomic.LoadInt64(&goff[s-1])
		} else if o := goff[s-1]; o < int64(len(gedges)) {
			_ = atomic.LoadInt32(&gedges[o])
		}
	}
}

// stealLockfree attempts to take the right half of victim's segment
// without locks or atomic RMW (§IV-B2). On success the thief's own
// descriptor points at [mid, r') of the victim's queue.
func (w *wsWorker) stealLockfree(victim int, me *segDesc) bool {
	vd := &w.ctx.descs[victim]
	if atomic.LoadInt32(&vd.idle) == 1 {
		w.c.StealVictimIdle++
		w.st.traceEvent(w.id, EventStealVictimIdle, victim, 0)
		return false
	}
	q := atomic.LoadInt64(&vd.q)
	f := atomic.LoadInt64(&vd.f)
	r := atomic.LoadInt64(&vd.r)
	// Sanity check: the trio may be mutually inconsistent (the victim
	// moved on, or another thief raced us). f' < r' <= Qin[q'].r with
	// valid q' is the paper's validity predicate; rejecting it is what
	// makes the racy reads safe.
	if q < 0 || q >= int64(len(w.st.in)) || r > w.st.in[q].origR {
		w.c.StealInvalid++
		w.st.traceEvent(w.id, EventStealInvalid, victim, 0)
		return false
	}
	if f >= r {
		w.c.StealVictimIdle++
		w.st.traceEvent(w.id, EventStealVictimIdle, victim, 0)
		return false
	}
	if r-f < minStealSize {
		w.c.StealTooSmall++
		w.st.traceEvent(w.id, EventStealTooSmall, victim, r-f)
		return false
	}
	mid := f + (r-f)/2
	w.st.chaosAt(ChaosStealPublish, w.id, mid)
	// Take the right half: shrink the victim, point ourselves at it.
	// These plain stores can race with the victim's own progress or
	// another thief; any resulting overlap is duplicate work only.
	storeRelaxed64(&vd.r, mid)
	storeRelaxed64(&me.q, q)
	storeRelaxed64(&me.f, mid)
	storeRelaxed64(&me.r, r)
	if atomic.LoadInt32(&w.st.in[q].buf[mid]) == emptySlot {
		// The victim (or a previous thief) already explored past mid:
		// the segment is stale (valid-looking but spent). Empty our
		// own descriptor before giving up — it currently advertises
		// the spent [mid, r), and leaving it live would let other
		// thieves chain-steal dead work from us.
		storeRelaxed64(&me.f, r)
		w.c.StealStale++
		w.st.traceEvent(w.id, EventStealStale, victim, 0)
		return false
	}
	w.st.traceEvent(w.id, EventStealOK, victim, r-mid)
	return true
}

// stealLocked attempts the same half-steal with the victim's mutex,
// using TryLock so the thief's wait time is O(1) (§V).
func (w *wsWorker) stealLocked(victim int, me *segDesc) bool {
	vd := &w.ctx.descs[victim]
	if !vd.mu.TryLock() {
		w.c.LockTryFails++
		w.c.StealVictimLocked++
		w.st.traceEvent(w.id, EventStealVictimLocked, victim, 0)
		return false
	}
	w.c.LockAcquisitions++
	if atomic.LoadInt32(&vd.idle) == 1 || vd.f >= vd.r {
		vd.mu.Unlock()
		w.c.StealVictimIdle++
		w.st.traceEvent(w.id, EventStealVictimIdle, victim, 0)
		return false
	}
	if rem := vd.r - vd.f; rem < minStealSize {
		vd.mu.Unlock()
		w.c.StealTooSmall++
		w.st.traceEvent(w.id, EventStealTooSmall, victim, rem)
		return false
	}
	q, f, r := vd.q, vd.f, vd.r
	mid := f + (r-f)/2
	vd.r = mid
	vd.mu.Unlock()
	me.mu.Lock()
	w.c.LockAcquisitions++
	me.q, me.f, me.r = q, mid, r
	me.mu.Unlock()
	w.st.traceEvent(w.id, EventStealOK, victim, r-mid)
	return true
}

// setIdle publishes that this worker has quit the current phase.
func (w *wsWorker) setIdle(d *segDesc) {
	if w.locked {
		d.mu.Lock()
		atomic.StoreInt32(&d.idle, 1)
		d.mu.Unlock()
		return
	}
	atomic.StoreInt32(&d.idle, 1)
}

// pickVictim chooses a random victim != id, preferring the local
// simulated socket with probability SameSocketBias when Sockets > 1.
func (w *wsWorker) pickVictim() int {
	p := w.st.opt.Workers
	sockets := w.st.opt.Sockets
	if sockets > 1 && w.r.Float64() < w.st.opt.SameSocketBias {
		lo, hi := socketRange(socketOf(w.id, p, sockets), p, sockets)
		if hi-lo > 1 {
			// Uniform over the socket's workers minus self: draw from
			// a range one short and shift draws at or above own id up
			// by one. (Remapping a self-draw to the successor would
			// double-weight the successor as a victim.)
			v := lo + w.r.Intn(hi-lo-1)
			if v >= w.id {
				v++
			}
			w.c.StealSameSocket++
			return v
		}
	}
	v := w.r.Intn(p - 1)
	if v >= w.id {
		v++
	}
	if sockets > 1 {
		if socketOf(v, p, sockets) == socketOf(w.id, p, sockets) {
			w.c.StealSameSocket++
		} else {
			w.c.StealCrossSocket++
		}
	}
	return v
}

// phase2 explores the adjacency lists of the hot vertices deferred in
// phase 1. In the default (paper-preferred) form each hot vertex's
// list is split statically into p chunks and worker i explores chunk i
// of every list — no synchronization needed because chunk boundaries
// are pure functions of (vertex, p). With Phase2Stealing the
// (vertex, chunk) units are dispatched from a shared cursor instead:
// optimistic load/store in lockfree mode (duplicate units are benign),
// mutex in locked mode.
func (w *wsWorker) phase2() {
	p := w.st.opt.Workers
	g := w.st.g
	exploreChunk := func(v int32, chunk int) {
		nb := g.Neighbors(v)
		lo := len(nb) * chunk / p
		hi := len(nb) * (chunk + 1) / p
		w.c.HotChunks++
		w.c.EdgesScanned += int64(hi - lo)
		w.out = w.st.scanNeighbors(w.id, v, nb[lo:hi], w.out)
		w.st.beat(w.id)
	}
	if !w.st.opt.Phase2Stealing {
		for owner := 0; owner < p; owner++ {
			for _, v := range w.ctx.hot[owner] {
				if w.st.aborted() {
					return
				}
				exploreChunk(v, w.id)
				w.st.maybeYield()
			}
		}
		return
	}
	// Dynamic dispatch over the flattened (vertex, chunk) unit space.
	// The flattening buffer is pooled on the worker so repeated levels
	// (and engine runs) reuse its capacity.
	flat := w.flat[:0]
	for owner := 0; owner < p; owner++ {
		flat = append(flat, w.ctx.hot[owner]...)
	}
	w.flat = flat
	totalUnits := int64(len(flat)) * int64(p)
	for {
		if w.st.aborted() {
			return
		}
		var unit int64
		if w.locked {
			w.ctx.phase2Mu.Lock()
			w.c.LockAcquisitions++
			unit = w.ctx.phase2Cursor
			w.ctx.phase2Cursor = unit + 1
			w.ctx.phase2Mu.Unlock()
		} else {
			// Optimistic advance: racing workers may both take the
			// same unit (duplicate exploration) — benign, as ever.
			unit = atomic.LoadInt64(&w.ctx.phase2Cursor)
			w.st.chaosAt(ChaosPhase2Advance, w.id, unit)
			atomic.StoreInt64(&w.ctx.phase2Cursor, unit+1)
		}
		if unit >= totalUnits {
			return
		}
		exploreChunk(flat[unit/int64(p)], int(unit%int64(p)))
		w.st.maybeYield()
	}
}

// barrier is a reusable cyclic barrier used between the scale-free
// phases inside one level. (Level synchronization itself — like the
// cilk sync the paper relies on — is runtime scaffolding, distinct
// from the lock-freedom claim about the load-balancing fast path.)
// A poisoned barrier is permanently open: panic recovery breaks it so
// a dead party can never strand the surviving waiters.
type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	gen    int
	broken bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until n workers have called it, then releases them all.
// On a poisoned barrier it returns immediately.
func (b *barrier) wait() {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// poison permanently opens the barrier, releasing current waiters and
// letting every future wait pass straight through. Called by the panic
// abort path; the poisoned state is never reset because the engine the
// barrier belongs to is poisoned alongside it.
func (b *barrier) poison() {
	b.mu.Lock()
	if !b.broken {
		b.broken = true
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}
