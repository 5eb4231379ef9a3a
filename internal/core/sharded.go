package core

// Sharded execution: one pooled engine per contiguous vertex shard,
// exchanging cross-shard discoveries through the same optimistic
// one-append-one-tail-store protocol the intra-engine output queues
// use. The design is Buluç & Madduri's 1D owner-compute partitioning
// recast in the paper's optimistic style:
//
//   - Each shard runs the full per-level machinery of its bound family
//     (centralized / decentralized / work-stealing / edge-partitioned)
//     over its own frontier. By construction a shard's input queues
//     only ever hold vertices it owns: the source is seeded on its
//     owner, local discoveries keep owned targets, and remote targets
//     are forwarded instead of enqueued.
//   - When a worker's edge scan reaches a vertex another shard owns it
//     appends the (parent, vertex) pair to a private per-destination
//     block; full blocks are published into a single-writer exchange
//     queue with one copy plus one atomic tail store — exactly the
//     batched-publication protocol of flushBlock, so the cross-shard
//     path adds no locks and no atomic read-modify-write either.
//   - Between the explore and advance steps of every global level the
//     destination shards drain their inbound queues in parallel,
//     feeding each pair through the ordinary discover path. A vertex
//     forwarded by two shards, or forwarded and locally discovered in
//     the same level, is deduplicated there by the owner's epoch
//     stamp; the duplicate is benign, the paper's §III argument
//     verbatim.
//
// The per-shard "forwarded" filter reuses the epoch array: stamping a
// remote vertex records "this shard already told the owner" and costs
// no extra memory. The filter is advisory — two workers can race past
// it and forward twice — so epoch[v] == cur on a shard no longer
// implies v was claimed there, only touched. That is why a sharded
// run's result is assembled by mergedFinish from each shard's owned
// range, never by a per-shard finish() scan.

import (
	"context"
	"fmt"
	"sync/atomic"

	"optibfs/internal/graph"
	"optibfs/internal/rng"
	"optibfs/internal/stats"
)

// exchange is the cross-shard discovery mailbox: one outQueue per
// (source shard, destination shard, worker) triple, flattened. Queue
// row(src, dst)[w] is single-writer — only worker w of shard src
// appends and stores its tail — and single-reader — only worker w of
// shard dst drains it, between the explore and advance barriers — so
// the only synchronization is the atomic tail store of batched
// publication. Entries are (parent, vertex) pairs, two int32 each.
type exchange struct {
	shards int
	p      int
	sg     *graph.ShardedCSR
	q      []outQueue
}

func newExchange(sg *graph.ShardedCSR, p int) *exchange {
	S := sg.NumShards()
	ex := &exchange{shards: S, p: p, sg: sg, q: make([]outQueue, S*S*p)}
	return ex
}

// row returns the p exchange queues from shard src to shard dst,
// indexed by the writing (and draining) worker id.
func (ex *exchange) row(src, dst int) []outQueue {
	base := (src*ex.shards + dst) * ex.p
	return ex.q[base : base+ex.p]
}

// owner returns the shard owning vertex v.
func (ex *exchange) owner(v int32) int { return ex.sg.Owner(v) }

// reset empties every queue for a new run, keeping grown capacities.
func (ex *exchange) reset() {
	for i := range ex.q {
		ex.q[i].buf = ex.q[i].buf[:0]
		atomic.StoreInt64(&ex.q[i].tail, 0)
	}
}

// inboundVolume returns the published entry count awaiting shard dst.
// Called between the explore join and the drain release, so the tails
// are quiescent; the atomic loads are for form.
func (ex *exchange) inboundVolume(dst int) int64 {
	var v int64
	for src := 0; src < ex.shards; src++ {
		if src == dst {
			continue
		}
		row := ex.row(src, dst)
		for i := range row {
			v += atomic.LoadInt64(&row[i].tail)
		}
	}
	return v
}

// discoverRemote forwards edge u->w to w's owning shard. The epoch
// stamp doubles as this shard's "already forwarded" filter: advisory
// only (two workers may race past the check and both forward — a
// benign duplicate the owner's own epoch check absorbs), but it keeps
// a hub vertex from being forwarded once per inbound edge. No dist,
// claim, or parent is written for remote vertices; those stores belong
// to the owner.
func (st *state) discoverRemote(id int, u, w int32) {
	if atomic.LoadUint32(&st.epoch[w]) == st.cur {
		return
	}
	storeRelaxedU32(&st.epoch[w], st.cur)
	d := st.shardEx.owner(w)
	i := id*st.shardEx.shards + d
	blk := append(st.remoteBlk[i], u, w)
	if len(blk) >= 2*st.blkSize {
		blk = st.flushRemote(id, d, blk)
	}
	st.remoteBlk[i] = blk
}

// flushRemote publishes worker id's private remote block for shard dst
// into the exchange: one append, one atomic tail store — flushBlock's
// protocol on a cross-shard queue. ChaosShardFlush stretches the
// window between the copy and the store, in which the entries exist
// but are invisible to the owner.
func (st *state) flushRemote(id, dst int, blk []int32) []int32 {
	q := &st.shardEx.row(st.shardID, dst)[id]
	q.buf = append(q.buf, blk...)
	c := &st.counters[id]
	c.BlocksFlushed++
	if len(blk) < 2*st.blkSize {
		c.PartialFlushes++
	}
	st.chaosAt(ChaosShardFlush, id, int64(len(q.buf)))
	storeRelaxed64(&q.tail, int64(len(q.buf)))
	return blk[:0]
}

// endLevelRemote is the level-barrier flush of the exchange: every
// worker publishes its partial remote blocks before quiescing, so a
// forwarded vertex never waits in a private block past the level it
// was discovered in. Called from workerLevel on every phase; after the
// explore phase the blocks hold the level's residue, after the drain
// phase they are already empty (draining only discovers owned
// vertices, which never re-enter the remote path).
func (st *state) endLevelRemote(id int) {
	S := st.shardEx.shards
	for d := 0; d < S; d++ {
		if d == st.shardID {
			continue
		}
		if blk := st.remoteBlk[id*S+d]; len(blk) > 0 {
			st.remoteBlk[id*S+d] = st.flushRemote(id, d, blk)
		}
	}
}

// drainRemote is one destination worker's half of the exchange: worker
// id of this shard drains the inbound queues written by its namesake
// worker on every other shard, feeding each (parent, vertex) pair
// through the ordinary discover path — the owner's epoch check dedups
// pairs forwarded twice or already discovered locally, and accepted
// vertices take dist level+1 with the draining worker as claimant,
// exactly as if a local worker had discovered them. The queue reset at
// the end is safe: the writers joined the explore barrier before the
// drain phase was released, and they will not write again until the
// next level's explore.
func (st *state) drainRemote(id int) {
	ex := st.shardEx
	out := st.blk[id]
	for src := 0; src < ex.shards; src++ {
		if src == st.shardID {
			continue
		}
		q := &ex.row(src, st.shardID)[id]
		n := atomic.LoadInt64(&q.tail)
		if n == 0 {
			continue
		}
		buf := q.buf[:n]
		for i := int64(0); i+1 < n; i += 2 {
			out = st.discover(id, buf[i], buf[i+1], out)
		}
		st.beat(id)
		q.buf = q.buf[:0]
		storeRelaxed64(&q.tail, 0)
	}
	st.blk[id] = st.endLevelOut(id, out)
}

// shardEngine is one shard's execution slice: pooled state bound to
// the family's machinery, plus the crew that runs the shard's phases.
// explore and drain are the crew's two per-worker phase bodies — the
// binding's perLevel and drainRemote under workerLevel's recovery
// barrier — bound once so releasing a phase allocates nothing.
type shardEngine struct {
	st      *state
	b       binding
	crew    *crew
	explore func(id int)
	drain   func(id int)
}

// shardSeed derives shard s's RNG seed. Shard 0 keeps the caller's
// seed unchanged so a 1-shard ShardedEngine draws exactly the same
// random choices as a plain Engine with the same options.
func shardSeed(seed uint64, s int) uint64 {
	if s == 0 {
		return seed
	}
	return seed ^ rng.Mix64(0x5ead0000+uint64(s))
}

// ShardedEngine runs one parallel BFS variant over a partitioned graph:
// one pooled per-shard engine per contiguous vertex range, cross-shard
// discoveries exchanged through optimistic single-writer queues at the
// level barriers (see the package comment at the top of this file).
// Sharing contract, result aliasing, poisoning, and reuse semantics
// match Engine: single caller, Result valid until the next run, a
// worker panic poisons the whole engine, stalls and cancellations
// leave it reusable. Reorder, TraceCapacity, and LevelTimeline are not
// supported in sharded mode — the first is rejected, the others are
// stripped.
type ShardedEngine struct {
	sg       *graph.ShardedCSR
	algo     Algorithm
	opt      Options
	ex       *exchange // nil when 1 shard: the hot paths match Engine's
	shards   []*shardEngine
	closed   bool
	poisoned bool

	levelA  int32     // atomic; global level mirror for the watchdog
	wd      *watchdog // nil unless Options.StallTimeout
	running []bool    // per-shard released-phase flags, pooled

	// Goal-directed termination. The goal lives at the engine level
	// only — each shard's own state gets a zero goal — because a shard's
	// epoch stamp on a vertex it does not own means "forwarded", not
	// "settled"; goalDone consults the target's *owner* shard, the one
	// place its stamp is authoritative. goal is the current run's.
	goal      Goal
	truncated bool

	// hy is the engine half of direction optimization (hybrid.go); nil
	// unless Options.Hybrid. The per-shard halves live on each shard
	// state's hybridState, with curBits aliased to hy's global bitmap.
	hy *shardedHybrid

	// Pooled merged-result storage (mergedFinish).
	dist       []int32
	parent     []int32
	levelSizes []int64
	perWorker  []stats.PaddedCounters
	res        Result
}

// NewShardedEngine builds a sharded engine for algo over the
// partition. algo must be a parallel variant (the serial baseline is
// one queue on one goroutine by definition; NewBackend routes Serial
// to a plain Engine) and opt.Reorder must be off — relabeling would
// scramble the contiguous ownership ranges the exchange routes by.
func NewShardedEngine(sg *graph.ShardedCSR, algo Algorithm, opt Options) (*ShardedEngine, error) {
	if sg == nil || sg.Full == nil {
		return nil, fmt.Errorf("core: nil sharded graph")
	}
	if algo == Serial {
		return nil, fmt.Errorf("core: sharded execution requires a parallel variant, not %s", Serial)
	}
	if opt.Reorder != ReorderNone {
		return nil, fmt.Errorf("core: sharded execution does not support Reorder=%q", opt.Reorder)
	}
	opt = opt.withDefaults()
	// Per-worker traces and the level timeline describe one state's
	// run; neither composes across shards. Strip rather than reject so
	// option sets tuned for Engine sweeps work unchanged.
	opt.TraceCapacity = 0
	opt.LevelTimeline = false
	if algo == BFSCL {
		// BFS_CL is BFS_DL with a single pool (paper §IV-A3), resolved
		// here exactly as NewEngine resolves it.
		opt.Pools = 1
	}
	bf, err := bindingFor(algo)
	if err != nil {
		return nil, err
	}
	S := sg.NumShards()
	e := &ShardedEngine{
		sg:      sg,
		algo:    algo,
		opt:     opt,
		shards:  make([]*shardEngine, S),
		running: make([]bool, S),
	}
	e.wd = newWatchdog(e, algo, &e.levelA, opt.StallTimeout)
	if S > 1 {
		e.ex = newExchange(sg, opt.Workers)
	}
	if opt.Hybrid {
		e.hy = &shardedHybrid{
			curBits: make([]uint64, (int(sg.Full.NumVertices())+63)/64),
			alpha:   opt.Alpha,
			beta:    opt.Beta,
		}
	}
	for s := 0; s < S; s++ {
		sOpt := opt
		sOpt.Seed = shardSeed(opt.Seed, s)
		st := allocState(sg.Full, sOpt)
		st.algo = algo
		if e.ex != nil {
			st.shardEx = e.ex
			st.single = false
			st.shardID = s
			st.shardLo, st.shardHi = sg.Range(s)
			st.chaosBase = s * opt.Workers
			st.remoteBlk = make([][]int32, opt.Workers*S)
			for i := range st.remoteBlk {
				st.remoteBlk[i] = make([]int32, 0, 2*st.blkSize)
			}
		}
		se := &shardEngine{st: st}
		se.b = bf(st)
		if e.hy != nil {
			// Rebind the shard's hybrid state to the global frontier
			// bitmap and its owned vertex range (allocState partitioned
			// [0, n) not knowing about shards); the shard reads every
			// shard's frontier through the shared curBits but scans and
			// discovers only owned vertices. sg.Range is used directly —
			// shardLo/shardHi stay unset when S == 1 (ex == nil).
			lo, hi := sg.Range(s)
			st.hy.curBits = e.hy.curBits
			st.hy.lo, st.hy.hi = hybridRanges(lo, hi, opt.Workers)
			se.b = wrapHybrid(st, se.b)
		}
		perLevel := se.b.perLevel
		se.explore = func(id int) { st.workerLevel(id, perLevel) }
		se.drain = func(id int) { st.workerLevel(id, st.drainRemote) }
		se.crew = newCrew(opt.Workers, algo, s*opt.Workers)
		e.shards[s] = se
	}
	n := sg.Full.NumVertices()
	e.dist = make([]int32, n)
	for i := range e.dist {
		e.dist[i] = graph.Unreached
	}
	if opt.TrackParents {
		e.parent = make([]int32, n)
		for i := range e.parent {
			e.parent[i] = -1
		}
	}
	e.perWorker = make([]stats.PaddedCounters, S*opt.Workers)
	return e, nil
}

// Run executes one search from src, reusing the engine's pooled state.
// The returned Result is valid only until the engine's next run.
func (e *ShardedEngine) Run(src int32) (*Result, error) {
	return e.RunContext(context.Background(), src)
}

// RunContext is Run with cancellation, under Engine.RunContext's exact
// contract: level-boundary cancellation latency (mid-level with a
// watchdog armed), partial Results alongside abort errors, ErrPoisoned
// after a worker panic.
func (e *ShardedEngine) RunContext(ctx context.Context, src int32) (*Result, error) {
	return e.RunGoal(ctx, src, Goal{})
}

// RunGoal is RunContext with a termination goal, under Engine.RunGoal's
// exact contract. The goal is judged at the engine's global barrier
// only (see goalDone); every shard state runs with the zero goal, since
// a shard observing the target's stamp locally could terminate on a
// merely-forwarded vertex.
func (e *ShardedEngine) RunGoal(ctx context.Context, src int32, goal Goal) (*Result, error) {
	if e.closed {
		return nil, fmt.Errorf("core: engine is closed")
	}
	if e.poisoned {
		return nil, ErrPoisoned
	}
	n := e.sg.Full.NumVertices()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", src, n)
	}
	if err := goal.Validate(n); err != nil {
		return nil, err
	}
	e.goal, e.truncated = goal, false
	for _, se := range e.shards {
		se.st.ctx = ctx
		se.st.beginRunCommon()
	}
	e.shards[e.sg.Owner(src)].st.seedSource(src)
	if e.hy != nil {
		e.hy.bottomUp = false
		e.hy.prevNf = 1
		e.hy.unexplored = e.sg.Full.NumEdges() - e.sg.Full.OutDegree(src)
	}
	if e.ex != nil {
		e.ex.reset()
	}
	atomic.StoreInt32(&e.levelA, 0)
	e.wd.start(ctx)
	e.runLoop()
	e.wd.end()
	res := e.mergedFinish()
	if err := e.abortError(); err != nil {
		return res, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return res, cerr
	}
	return res, nil
}

// runLoop drives the global level-synchronous loop. Each level is an
// explore phase (every shard with a non-empty frontier runs its
// family's perLevel over its own queues, concurrently across shards),
// a drain phase (every shard with inbound exchange entries feeds them
// through discover), and the barrier step (closeLevel). An abort
// observed after the explore join skips the drain — its invariants
// assume a completed explore — and the audit, which legitimately sees
// unconsumed state then.
func (e *ShardedEngine) runLoop() {
	for {
		if e.volume() == 0 || e.canceled() || e.aborted() || e.goalDone() {
			return
		}
		bu := e.hy != nil && e.hy.bottomUp
		for s, se := range e.shards {
			// A bottom-up level releases every shard regardless of its
			// owned frontier: a shard with no frontier vertices still
			// has unvisited vertices whose in-neighbors may sit in other
			// shards' portions of the global bitmap.
			if se.st.volume() > 0 || bu {
				if se.b.setup != nil {
					se.b.setup()
				}
				se.crew.start(se.explore)
				e.running[s] = true
			}
		}
		e.joinRunning()
		if e.ex != nil && !e.aborted() {
			for s, se := range e.shards {
				if e.ex.inboundVolume(s) > 0 {
					se.crew.start(se.drain)
					e.running[s] = true
				}
			}
			e.joinRunning()
		}
		e.closeLevel()
	}
}

// closeLevel is the sharded barrier step: per shard audit, record,
// level bump and frontier swap, then the global direction step. Like
// the Engine's it runs under the recovery barrier (charged to shard 0,
// worker 0), so a panic here poisons the run instead of the process.
func (e *ShardedEngine) closeLevel() {
	defer e.shards[0].st.recoverWorker(0)
	aborted := e.aborted()
	for _, se := range e.shards {
		st := se.st
		if !aborted {
			st.auditLevel()
		}
		st.recordLevel()
		st.level++
		atomic.StoreInt32(&st.levelA, st.level)
		st.swap()
	}
	atomic.StoreInt32(&e.levelA, e.shards[0].st.level)
	e.hybridAdvance()
}

// goalDone is the sharded barrier-time termination predicate: the
// shards have all joined the level barrier (runLoop's loop top), so
// this is the run's single-threaded point and the target's stamp is
// read on its owner shard — the one shard whose epoch entry means
// "settled" rather than "forwarded" — with a plain load. The shards
// effectively vote through their quiescence at the barrier; the driver
// casts the verdict.
func (e *ShardedEngine) goalDone() bool {
	if d := e.goal.MaxDepth; d > 0 && e.shards[0].st.level >= d {
		e.truncated = true
		return true
	}
	if t := e.goal.TargetVertex(); t >= 0 {
		st := e.shards[e.sg.Owner(t)].st
		if st.epoch[t] == st.cur {
			e.truncated = true
			return true
		}
	}
	return false
}

// joinRunning waits for every released phase and clears the flags.
func (e *ShardedEngine) joinRunning() {
	for s, se := range e.shards {
		if e.running[s] {
			se.crew.join()
			e.running[s] = false
		}
	}
}

// volume sums the input-queue entries across all shards.
func (e *ShardedEngine) volume() int64 {
	var v int64
	for _, se := range e.shards {
		v += se.st.volume()
	}
	return v
}

// canceled reports whether the run's context has fired.
func (e *ShardedEngine) canceled() bool { return e.shards[0].st.canceled() }

// aborted reports whether any shard's run has been aborted.
func (e *ShardedEngine) aborted() bool {
	for _, se := range e.shards {
		if se.st.aborted() {
			return true
		}
	}
	return false
}

// abortRun publishes an abort on every shard (first reason wins within
// each; a shard that already aborted for its own cause keeps it).
func (e *ShardedEngine) abortRun(reason int32, stall *StallError) {
	for _, se := range e.shards {
		se.st.abortRun(reason, stall)
	}
}

// beatSum samples total dispatch progress across all shards.
func (e *ShardedEngine) beatSum() int64 {
	var n int64
	for _, se := range e.shards {
		n += se.st.beatSum()
	}
	return n
}

// abortError maps the shards' abort states to the run's error: a
// worker panic (which poisons the whole engine — the shard's abandoned
// pooled state and the exchange queues it fed cannot be trusted) wins
// over a stall; cancellation returns nil here and RunContext reports
// ctx.Err() itself, as in Engine.
func (e *ShardedEngine) abortError() error {
	var stall error
	var panicked error
	for _, se := range e.shards {
		if se.st.abortPoisons() {
			e.poisoned = true
		}
		switch err := se.st.abortError().(type) {
		case *WorkerPanicError:
			if panicked == nil {
				panicked = err
			}
		case *StallError:
			if stall == nil {
				stall = err
			}
		}
	}
	if panicked != nil {
		return panicked
	}
	if stall != nil {
		return stall
	}
	return nil
}

// mergedFinish assembles the run's Result from the shards' owned
// ranges — per-shard finish() would misread the epoch array, whose
// stamps also mark forwarded (not claimed) remote vertices. One O(n)
// pass copies each owner's dist/parent entries into the engine's
// pooled merged arrays, normalizing untouched vertices, while the
// level histogram and reach statistics accumulate exactly as in
// finish(). The Result aliases pooled engine state, valid until the
// next run.
func (e *ShardedEngine) mergedFinish() *Result {
	p := e.opt.Workers
	for s, se := range e.shards {
		copy(e.perWorker[s*p:(s+1)*p], se.st.counters)
	}
	total := stats.Sum(e.perWorker)
	levels := e.shards[0].st.level
	if cap(e.levelSizes) < int(levels) {
		e.levelSizes = make([]int64, levels)
	} else {
		e.levelSizes = e.levelSizes[:levels]
		for i := range e.levelSizes {
			e.levelSizes[i] = 0
		}
	}
	res := &e.res
	*res = Result{
		Dist:       e.dist,
		Parent:     e.parent,
		Levels:     levels,
		Truncated:  e.truncated,
		Workers:    len(e.shards) * p,
		Counters:   total,
		PerWorker:  e.perWorker,
		Pops:       total.VerticesPopped,
		LevelSizes: e.levelSizes,
	}
	g := e.sg.Full
	for s, se := range e.shards {
		st := se.st
		lo, hi := e.sg.Range(s)
		cur := st.cur
		for v := lo; v < hi; v++ {
			if st.epoch[v] != cur {
				e.dist[v] = graph.Unreached
				if e.parent != nil {
					e.parent[v] = -1
				}
				continue
			}
			e.dist[v] = st.dist[v]
			if e.parent != nil {
				e.parent[v] = st.parent[v]
			}
			res.Reached++
			res.EdgesTraversed += g.OutDegree(v)
			if d := st.dist[v]; int(d) < len(res.LevelSizes) {
				res.LevelSizes[d]++
			}
		}
	}
	return res
}

// Reseed restarts every shard's RNG streams as if the engine had been
// built with Options.Seed = seed, preserving the per-shard derivation.
func (e *ShardedEngine) Reseed(seed uint64) {
	e.opt.Seed = seed
	for s, se := range e.shards {
		ss := shardSeed(seed, s)
		se.st.opt.Seed = ss
		for i, r := range se.b.rngs {
			r.Seed(ss ^ rng.Mix64(uint64(i)+se.b.rngSalt))
		}
	}
}

// SetChaos installs (or removes) a chaos hook on every shard between
// runs. Worker ids reported to the hook are offset by shard (shard s
// worker w reports as s*Workers+w), so one injector covers the fleet.
func (e *ShardedEngine) SetChaos(h ChaosHook) {
	e.opt.Chaos = h
	for _, se := range e.shards {
		st := se.st
		st.opt.Chaos = h
		st.chaos = h
		if a, ok := h.(ChaosLevelAuditor); ok {
			st.levelAudit = a
		} else {
			st.levelAudit = nil
		}
		if a, ok := h.(ChaosFlushAuditor); ok {
			st.flushAudit = a
		} else {
			st.flushAudit = nil
		}
	}
}

// Algorithm returns the variant every shard runs.
func (e *ShardedEngine) Algorithm() Algorithm { return e.algo }

// Graph returns the full (unpartitioned) graph.
func (e *ShardedEngine) Graph() *graph.CSR { return e.sg.Full }

// Sharded returns the partition the engine runs over.
func (e *ShardedEngine) Sharded() *graph.ShardedCSR { return e.sg }

// Options returns the engine's resolved options (defaults applied,
// sharded-mode strips included).
func (e *ShardedEngine) Options() Options { return e.opt }

// Close stops every shard's crew; further runs fail. Close is
// idempotent.
func (e *ShardedEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, se := range e.shards {
		se.crew.close()
	}
}

// Backend is the run interface common to Engine and ShardedEngine: the
// serving layer, the harness, and the soak driver program against it
// so a shard count is just another option. Both implementations share
// the contract documented on Engine — single caller, pooled Results
// valid until the next run, ErrPoisoned after a worker panic.
type Backend interface {
	// Run executes one search from src.
	Run(src int32) (*Result, error)
	// RunContext is Run with cancellation.
	RunContext(ctx context.Context, src int32) (*Result, error)
	// RunGoal is RunContext with a termination goal for this run
	// (early s-t termination and/or a depth bound); the zero Goal is
	// exactly RunContext.
	RunGoal(ctx context.Context, src int32, goal Goal) (*Result, error)
	// Reseed restarts the RNG streams from seed.
	Reseed(seed uint64)
	// SetChaos swaps the chaos hook between runs.
	SetChaos(h ChaosHook)
	// Algorithm returns the bound variant.
	Algorithm() Algorithm
	// Graph returns the full graph the backend answers queries about.
	Graph() *graph.CSR
	// Options returns the resolved options.
	Options() Options
	// Close releases the backend's resources.
	Close()
}

var (
	_ Backend = (*Engine)(nil)
	_ Backend = (*ShardedEngine)(nil)
)

// NewBackend builds the engine Options.Shards asks for: a plain Engine
// for one shard or the serial baseline (which is one queue on one
// goroutine by definition, so a sweep that sets Shards alongside
// Serial still works), a ShardedEngine otherwise. Shard counts beyond
// the vertex count are clamped so small test graphs compose with fixed
// sweep dimensions.
func NewBackend(g *graph.CSR, algo Algorithm, opt Options) (Backend, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = 1
	}
	if n := g.NumVertices(); n > 0 && int64(shards) > int64(n) {
		shards = int(n)
	}
	if shards == 1 || algo == Serial {
		return NewEngine(g, algo, opt)
	}
	sg, err := graph.Partition(g, shards)
	if err != nil {
		return nil, fmt.Errorf("core: partition: %w", err)
	}
	return NewShardedEngine(sg, algo, opt)
}
