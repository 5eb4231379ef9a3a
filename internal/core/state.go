package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"optibfs/internal/graph"
	"optibfs/internal/stats"
)

// Queue slots hold vertex+1 so that 0 can serve simultaneously as the
// "empty / already explored" mark and as the end-of-queue sentinel
// (paper §IV: "We always add a sentinel (0) at the end of each queue").
const emptySlot int32 = 0

// sharedQueue is one input queue of the current BFS level. buf holds
// origR encoded vertices followed by a sentinel 0 slot; the lockfree
// algorithms read and clear slots with atomic loads/stores. front is
// the racy shared front pointer used by the centralized variants,
// padded so neighboring queues' hot fields do not share a cache line.
type sharedQueue struct {
	buf   []int32
	front int64 // atomic; next index to dispatch
	origR int64 // number of valid entries; buf[origR] == 0 sentinel
	_     [24]byte
}

// outQueue is one worker's shared output queue for the next BFS level
// under batched frontier publication. The owning worker appends whole
// discovery blocks to buf and then publishes them with a single relaxed
// store of tail — one shared-index store per block instead of one per
// vertex, which is the entire point of the batching. Entries at index
// >= tail exist only in the owner's cache and must never be read by
// another party; the level barrier flushes every partial block, so
// tail == len(buf) whenever the buffers change hands at swap. Padded
// so neighboring workers' tail stores do not share a cache line.
type outQueue struct {
	buf  []int32
	tail int64 // relaxed store, atomic load; published entry count, <= len(buf)
	_    [32]byte
}

// state carries everything shared by one BFS run. Under an Engine one
// state outlives many runs: every array below is allocated once (at the
// graph's size or the buffers' high-water capacity) and re-primed by
// beginRun, so a warm run performs no allocation.
type state struct {
	g    *graph.CSR
	opt  Options
	dist []int32 // atomic load/store in parallel variants

	// epoch stamps the per-vertex arrays with the run that last wrote
	// them: dist[v] / claim[v] / parent[v] are meaningful iff
	// epoch[v] == cur. Bumping cur invalidates every vertex in O(1),
	// replacing the O(n) re-initialization of three arrays; a full
	// sweep happens only when the uint32 counter wraps (once every
	// 2^32-1 runs). Within a run, the claim publishes the epoch stamp
	// after the payload stores, and finish normalizes stale entries so
	// Result.Dist/Parent read as plain single-run arrays.
	epoch []uint32
	cur   uint32

	in  []sharedQueue // p input queues for the current level
	out []outQueue    // p shared output queues (no sentinel while open)

	// blk holds the p private discovery blocks of batched frontier
	// publication: each worker appends discoveries to its block and
	// flushBlock copies a full block into out[id] with one tail store
	// (Options.PublishBlock entries per shared store). blkSize caches
	// the block capacity so the hot-path flush test is one comparison
	// against a local field.
	blk     [][]int32
	blkSize int

	// claim implements the §IV-D ParentClaim filter when enabled:
	// claim[v] is the worker id whose output queue "owns" v.
	claim []int32

	// parent records a BFS-tree parent per vertex when TrackParents is
	// set (arbitrary concurrent write: racing same-level discoverers
	// each store their own id and any winner is valid).
	parent []int32

	counters []stats.PaddedCounters
	events   [][]Event // per-worker dispatch traces; nil unless enabled
	dropped  []int64   // per-worker events dropped on full buffers
	level    int32     // current BFS level being produced (dist of children)

	// goal is the current run's goal, bound by the engine before each
	// run. truncated records that goalDone fired this run.
	// The predicate runs only at level barriers — the run's existing
	// single-threaded points — so it reads epoch and level with plain
	// loads under the barrier's happens-before edge and adds no
	// synchronization to the workers' hot paths.
	goal      Goal
	truncated bool

	// Per-level timeline (Options.LevelTimeline): lvl is the pooled
	// LevelStat storage recordLevel appends to at each level barrier,
	// lvlPrev the previous barrier's cumulative counter sum, lvlStart
	// the previous barrier's clock reading.
	timeline bool
	lvl      []LevelStat
	lvlPrev  stats.Counters
	lvlStart time.Time

	// res and levelSizes are the pooled Result storage finish() fills;
	// a Result handed out is valid only until the state's next run.
	res        Result
	levelSizes []int64

	// yield enables cooperative runtime.Gosched() calls at dispatch
	// boundaries when the run is oversubscribed (more workers than
	// GOMAXPROCS). Without it an oversubscribed run degenerates into
	// one goroutine executing a whole level before the others are
	// scheduled, which would make per-worker load-balance counters —
	// and the cost model built on them — meaningless. On a machine
	// with enough cores it is never enabled and the hot paths are
	// untouched.
	yield bool

	// single marks a one-worker state, whose one worker never enqueues
	// a vertex twice, so the hybrid's top-down frontier count skips its
	// dedup bitmap.
	single bool

	// chaos is Options.Chaos, kept as a direct field so the hot-path
	// nil-check compiles to one load+branch; levelAudit is the same
	// hook's optional per-level audit view. slotAudit is set by the
	// runners that zero queue slots as they pop (the lockfree
	// variants), the only ones whose buffers encode consumption.
	chaos      ChaosHook
	levelAudit ChaosLevelAuditor
	flushAudit ChaosFlushAuditor
	slotAudit  bool

	pops int64 // total pops, accumulated across levels after barriers

	// hy is the direction-optimizing machinery (hybrid.go); nil unless
	// Options.Hybrid. While hy.bottomUp the in-queues are empty — the
	// frontier lives in hy's bitmap and volume() reports hy.curCount.
	hy *hybridState

	// ctl is the engine's run-control (recover.go): abort word, typed
	// cause, poison hooks, level mirror and watchdog. beats is ctl's
	// heartbeat lanes, indexed by worker id, so a dispatch-boundary beat
	// costs one load and one store.
	ctl   *runCtl
	beats []beatLane
}

// allocState allocates run state for g sized by opt, without priming it
// for any particular source. Called once per Engine; beginRun primes it
// per run. The per-vertex arrays start fully normalized (Unreached /
// no-claim / no-parent) so a state that has never run still reads as an
// empty result. The state runs under ctl, one heartbeat lane per
// worker.
func allocState(g *graph.CSR, opt Options, ctl *runCtl) *state {
	p := opt.Workers
	n := g.NumVertices()
	blkSize := opt.PublishBlock
	if blkSize <= 0 {
		// Engines arrive through withDefaults, but protocol tests build
		// state directly from zero-valued Options.
		blkSize = 128
	}
	st := &state{
		g:        g,
		opt:      opt,
		dist:     make([]int32, n),
		epoch:    make([]uint32, n),
		in:       make([]sharedQueue, p),
		out:      make([]outQueue, p),
		blk:      make([][]int32, p),
		blkSize:  blkSize,
		counters: stats.NewPerWorker(p),
		yield:    p > runtime.GOMAXPROCS(0),
		single:   p == 1,
		ctl:      ctl,
		beats:    ctl.beats,
	}
	st.setChaos(opt.Chaos)
	for i := range st.dist {
		st.dist[i] = graph.Unreached
	}
	if opt.ParentClaim {
		st.claim = make([]int32, n)
		for i := range st.claim {
			st.claim[i] = -1
		}
	}
	if opt.TrackParents {
		st.parent = make([]int32, n)
		for i := range st.parent {
			st.parent[i] = -1
		}
	}
	for i := range st.out {
		st.out[i].buf = make([]int32, 0, 256)
		st.blk[i] = make([]int32, 0, blkSize)
	}
	if opt.Hybrid {
		// Eager: Transpose() is cached on the CSR, so the O(n+m) build
		// (and its allocation) lands here, never inside a warm Run.
		st.hy = newHybridState(g, opt)
	}
	st.initTrace()
	st.initTimeline()
	return st
}

// beginRun primes pooled state for a new search from src. Queue buffers
// are reused at their grown capacities (re-seeding worker 0's queue
// must not allocate a fresh 2-slot slice, and out buffers keep their
// high-water capacity instead of resetting to 256), the per-vertex
// arrays are invalidated wholesale by the epoch bump, and src is
// planted in worker 0's input queue. The run-control's own per-run
// reset is runCtl.begin.
func (st *state) beginRun(src int32) {
	st.cur++
	if st.cur == 0 {
		// uint32 wraparound: a stamp written 2^32 runs ago would alias
		// the new epoch, so sweep everything back to the never-visited
		// stamp 0 and restart at 1. Runs once per 2^32-1 searches.
		for i := range st.epoch {
			st.epoch[i] = 0
		}
		st.cur = 1
	}
	st.level = 0
	st.pops = 0
	st.truncated = false
	for i := range st.counters {
		st.counters[i] = stats.PaddedCounters{}
	}
	for i := range st.events {
		st.events[i] = st.events[i][:0]
	}
	for i := range st.dropped {
		st.dropped[i] = 0
	}
	st.beginTimeline()
	for i := 0; i < st.opt.Workers; i++ {
		st.in[i].buf = append(st.in[i].buf[:0], emptySlot)
		st.in[i].origR = 0
		atomic.StoreInt64(&st.in[i].front, 0)
	}
	for i := range st.out {
		st.out[i].buf = st.out[i].buf[:0]
		atomic.StoreInt64(&st.out[i].tail, 0)
		st.blk[i] = st.blk[i][:0]
	}
	if st.hy != nil {
		st.resetHybrid()
	}
	st.in[0].buf = append(st.in[0].buf[:0], src+1, emptySlot)
	st.in[0].origR = 1
	atomic.StoreInt64(&st.in[0].front, 0)
	st.dist[src] = 0
	if st.claim != nil {
		st.claim[src] = 0
	}
	if st.parent != nil {
		st.parent[src] = src
	}
	st.epoch[src] = st.cur
	if st.hy != nil {
		// The classic Beamer budget convention: unexplored
		// excludes the frontier under decision, starting with the
		// source.
		st.hy.unexplored -= st.g.OutDegree(src)
	}
}

// volume returns the total number of valid entries across input
// queues — or, during a bottom-up hybrid level, the bitmap frontier's
// owned-vertex count (the queues are then deliberately empty).
func (st *state) volume() int64 {
	if st.hy != nil && st.hy.bottomUp {
		return st.hy.curCount
	}
	var v int64
	for i := range st.in {
		v += st.in[i].origR
	}
	return v
}

// swap promotes the output queues to input queues for the next level,
// appending the sentinel, and recycles the old input buffers as output
// storage. Only the published prefix buf[:tail] is promoted: the level
// barrier flushed every partial block, so tail == len(buf) here, and
// truncating to tail (rather than trusting len) keeps an unflushed
// entry from ever entering a frontier — it would surface as a flush-
// audit violation instead of a silent wrong answer. Called between
// level barriers, so plain accesses are safe.
func (st *state) swap() {
	for i := range st.in {
		old := st.in[i].buf
		oq := &st.out[i]
		next := append(oq.buf[:oq.tail], emptySlot)
		st.in[i].buf = next
		st.in[i].origR = int64(len(next) - 1)
		atomic.StoreInt64(&st.in[i].front, 0)
		oq.buf = old[:0]
		atomic.StoreInt64(&oq.tail, 0)
	}
}

// flushBlock publishes worker id's discovery block: one append into the
// shared output queue followed by one relaxed tail store covering the
// whole block. Between the copy and the tail store the queue holds
// entries nobody else may read — ChaosBlockFlush stretches exactly that
// window. Returns the block emptied for reuse.
func (st *state) flushBlock(id int, block []int32) []int32 {
	q := &st.out[id]
	q.buf = append(q.buf, block...)
	c := &st.counters[id]
	c.BlocksFlushed++
	if len(block) < st.blkSize {
		c.PartialFlushes++
	}
	st.chaosAt(ChaosBlockFlush, id, int64(len(q.buf)))
	storeRelaxed64(&q.tail, int64(len(q.buf)))
	return block[:0]
}

// endLevelOut is the level-barrier flush of batched publication: every
// worker calls it on its discovery block before quiescing, so a vertex
// never waits in a private block past the level it was discovered in.
// Returns the block emptied for the next level.
func (st *state) endLevelOut(id int, block []int32) []int32 {
	if len(block) > 0 {
		block = st.flushBlock(id, block)
	}
	return block
}

// prefetchWindow is how many adjacency targets ahead scanNeighbors
// touches the epoch line before the claim-check loop reaches them —
// deep enough to cover a memory round-trip at BFS edge-scan pace,
// shallow enough that the warmed lines survive until used.
const prefetchWindow = 8

// scanNeighbors scans u's adjacency slice nb for worker id, discovering
// targets into out: the adjacency claim. An undiscovered target w is
// assigned level+1 and appended to the worker's private discovery
// block, which is published to the shared output queue whenever it
// reaches PublishBlock entries. The epoch check-then-store is the
// paper's benign race on dist, carried over to the stamp: two workers
// may both discover w, all racing stores write the same values, and w
// appears in (at most) both their output queues. The claim stores dist,
// then claim[w] = id under ParentClaim, then parent[w] = u under parent
// tracking (an arbitrary concurrent write: racing discoverers are all
// at the same level, so whichever store survives names a valid BFS-tree
// parent), and publishes the epoch stamp last, so a racer that observes
// epoch[w] == cur is ordered after the payload it would otherwise have
// written itself. drainOwnLean inlines the same claim for short rows.
//
// Every loop-invariant load is hoisted. On rows longer than
// 2·prefetchWindow the loop runs a software-prefetched lookahead:
// before the epoch check on nb[i] it touches the epoch line of
// nb[i+prefetchWindow], turning the dependent random-access load into
// an in-flight one. Short rows skip it, where the warm-up touches would
// nearly double the epoch traffic without covering any memory latency.
// The touch is an atomic load because the epoch word is concurrently
// stored by racing discoverers — a plain read would be a data race —
// and because Go never eliminates an atomic op, so the prefetch cannot
// be dead-code-eliminated out of the loop.
func (st *state) scanNeighbors(id int, u int32, nb []int32, out []int32) []int32 {
	epoch, dist, parent, claim := st.epoch, st.dist, st.parent, st.claim
	cur, lvl := st.cur, st.level+1
	c := &st.counters[id]
	n := len(nb)
	i := 0
	if n > 2*prefetchWindow {
		for ; i < prefetchWindow; i++ {
			_ = atomic.LoadUint32(&epoch[nb[i]])
		}
		for i = 0; i < n-prefetchWindow; i++ {
			_ = atomic.LoadUint32(&epoch[nb[i+prefetchWindow]])
			w := nb[i]
			if atomic.LoadUint32(&epoch[w]) != cur {
				storeRelaxed32(&dist[w], lvl)
				if claim != nil {
					storeRelaxed32(&claim[w], int32(id))
				}
				if parent != nil {
					storeRelaxed32(&parent[w], u)
				}
				storeRelaxedU32(&epoch[w], cur)
				c.Discovered++
				out = append(out, w+1)
				if len(out) >= st.blkSize {
					out = st.flushBlock(id, out)
				}
			}
		}
	}
	for ; i < n; i++ {
		w := nb[i]
		if atomic.LoadUint32(&epoch[w]) != cur {
			storeRelaxed32(&dist[w], lvl)
			if claim != nil {
				storeRelaxed32(&claim[w], int32(id))
			}
			if parent != nil {
				storeRelaxed32(&parent[w], u)
			}
			storeRelaxedU32(&epoch[w], cur)
			c.Discovered++
			out = append(out, w+1)
			if len(out) >= st.blkSize {
				out = st.flushBlock(id, out)
			}
		}
	}
	return out
}

// prefetchVertex touches v's CSR offset entry so the adjacency bounds
// are in cache when v is popped a few slots later. Atomic for the same
// no-DCE reason as scanNeighbors; the offsets array is immutable, so
// the load is race-free by construction.
func (st *state) prefetchVertex(v int32) {
	if uint64(v) < uint64(len(st.g.Offsets)) {
		_ = atomic.LoadInt64(&st.g.Offsets[v])
	}
}

// exploreVertex scans v's adjacency, discovering neighbors into out.
func (st *state) exploreVertex(id int, v int32, out []int32) []int32 {
	c := &st.counters[id]
	c.VerticesPopped++
	nb := st.g.Neighbors(v)
	c.EdgesScanned += int64(len(nb))
	return st.scanNeighbors(id, v, nb, out)
}

// claimAllows reports whether the ParentClaim filter permits worker
// queue `qid`'s copy of v to be explored. Always true when disabled.
// (A popped v was discovered this run, so its claim entry is fresh.)
func (st *state) claimAllows(qid int, v int32) bool {
	if st.claim == nil {
		return true
	}
	return atomic.LoadInt32(&st.claim[v]) == int32(qid)
}

// goalDone is the barrier-time termination predicate: true once the
// completed-level count reaches the depth bound or the target vertex's
// distance has committed. Called only from the single-threaded driver
// at level barriers, after the checks for natural exhaustion — so a
// run whose frontier emptied on its own is never marked truncated —
// and ordered after the level's worker stores by the barrier itself,
// which is why the epoch read is plain. Level synchrony makes the
// partial result exact: when the barrier after exploring level d-1
// observes the target settled at distance d, every vertex at distance
// <= d holds its final distance and everything deeper reads Unreached.
func (st *state) goalDone() bool {
	if d := st.goal.MaxDepth; d > 0 && st.level >= d {
		st.truncated = true
		return true
	}
	if t := st.goal.TargetVertex(); t >= 0 && st.epoch[t] == st.cur {
		st.truncated = true
		return true
	}
	return false
}

// runLevels drives one search on the caller's goroutine: each level
// is one crew phase, every worker running its share of the level to
// completion — the level barrier every algorithm in the paper requires
// — followed by the barrier step. The caller assembles the (possibly
// partial) Result via finish.
func (st *state) runLevels(c *crew, setup func(), phase func(id int)) {
	for st.nextLevel(setup) {
		st.ctl.run(c, phase)
		st.closeLevel()
	}
}

// nextLevel is the run's single termination check — frontier drained,
// context canceled, run aborted, or goal reached — and otherwise primes
// the family's dispatch state via setup (optional). It runs under the
// recovery barrier: a panic in setup poisons the run and ends it.
func (st *state) nextLevel(setup func()) (more bool) {
	defer st.ctl.recoverWorker(0)
	if st.volume() == 0 || st.ctl.canceled() || st.aborted() || st.goalDone() {
		return false
	}
	if setup != nil {
		setup()
	}
	return true
}

// closeLevel is the barrier step after a level's phase: audit (skipped
// after an abort, which legitimately leaves slots unconsumed), record,
// promote the next frontier and take the hybrid direction step. Under
// the recovery barrier, a panic here (a chaos hook at
// ChaosDirectionFlip, say) poisons the run like a worker panic.
func (st *state) closeLevel() {
	defer st.ctl.recoverWorker(0)
	if !st.aborted() {
		st.auditLevel()
	}
	st.recordLevel()
	st.level++
	st.ctl.setLevel(st.level)
	st.swap()
	st.hybridAdvance()
}

// finish assembles the Result after the final barrier, reusing the
// state's pooled Result and level-size storage: the returned value
// aliases engine state and is valid only until the next run. The single
// O(n) pass that computes reach/level statistics also normalizes
// entries whose epoch stamp is stale — left over from earlier runs —
// back to Unreached / no-parent, so Dist and Parent always read as
// plain arrays of exactly this run's search.
func (st *state) finish() *Result {
	total := stats.Sum(st.counters)
	if cap(st.levelSizes) < int(st.level) {
		st.levelSizes = make([]int64, st.level)
	} else {
		st.levelSizes = st.levelSizes[:st.level]
		for i := range st.levelSizes {
			st.levelSizes[i] = 0
		}
	}
	res := &st.res
	*res = Result{
		Dist:          st.dist,
		Parent:        st.parent,
		Levels:        st.level,
		Truncated:     st.truncated,
		Workers:       st.opt.Workers,
		Counters:      total,
		PerWorker:     st.counters,
		Pops:          total.VerticesPopped,
		LevelSizes:    st.levelSizes,
		Events:        st.events,
		EventsDropped: st.dropped,
	}
	cur := st.cur
	for v := int32(0); v < st.g.NumVertices(); v++ {
		if st.epoch[v] != cur {
			st.dist[v] = graph.Unreached
			if st.parent != nil {
				st.parent[v] = -1
			}
			continue
		}
		res.Reached++
		res.EdgesTraversed += st.g.OutDegree(v)
		// An aborted run can leave discovered vertices beyond the last
		// completed level; they count toward Reached (their dist is
		// settled and correct) but fall outside the completed-level
		// histogram.
		if d := st.dist[v]; int(d) < len(res.LevelSizes) {
			res.LevelSizes[d]++
		}
	}
	st.finishTimeline(res)
	return res
}

// maybeYield hands the OS thread to another runnable goroutine when
// the run is oversubscribed. Called at dispatch boundaries only.
func (st *state) maybeYield() {
	if st.yield {
		runtime.Gosched()
	}
}

// setChaos installs (or, with nil, removes) the chaos hook together
// with its optional per-level and per-flush audit views.
func (st *state) setChaos(h ChaosHook) {
	st.opt.Chaos, st.chaos = h, h
	st.levelAudit, _ = h.(ChaosLevelAuditor)
	st.flushAudit, _ = h.(ChaosFlushAuditor)
}

// beat bumps worker id's heartbeat. Called at dispatch boundaries —
// segment fetches, steal-drain publication batches, hot-vertex chunks —
// never per vertex or edge.
func (st *state) beat(id int) { st.beats[id].bump() }

// aborted reports whether the run has been aborted for any reason;
// one atomic load of the run-control's abort word.
func (st *state) aborted() bool { return st.ctl.aborted() }

// workerLevel runs one worker's share of one level under the recovery
// barrier. ChaosStall fires first — once per worker per level, in
// every parallel family — giving the chaos harness a uniform place to
// inject panics and forced stalls. perLevel always runs, even when the
// run is already aborted: the bindings' own abort checks make it
// cheap, and skipping it here would strand peers at the scale-free
// phase barrier, which expects all p parties.
func (st *state) workerLevel(id int, perLevel func(id int)) {
	defer st.ctl.recoverWorker(id)
	st.chaosAt(ChaosStall, id, int64(st.level))
	perLevel(id)
}

// segmentSize returns the dispatch segment length for a queue with
// `remaining` undispatched entries: the fixed Options.SegmentSize if
// set, else the paper's adaptive rule — shrink segments as the level
// drains so late fetches stay balanced across p workers.
func (st *state) segmentSize(remaining int64) int64 {
	if st.opt.SegmentSize > 0 {
		return int64(st.opt.SegmentSize)
	}
	s := remaining/int64(8*st.opt.Workers) + 1
	const maxSeg = 1024
	if s > maxSeg {
		s = maxSeg
	}
	return s
}
