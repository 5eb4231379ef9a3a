package core

// Multi-source BFS (MS-BFS): up to 64 concurrent sources fused into
// one bit-parallel traversal, one uint64 lane per source.
//
// The fusion extends the paper's optimistic discipline instead of
// abandoning it. Per-vertex lane masks are shared state, but they are
// written with atomic loads and relaxed stores only — no locks, no atomic
// read-modify-write — so a concurrent OR can lose bits exactly like a
// torn segment descriptor can misreport a front. Both are benign for
// the same reason: the advisory mask only ever UNDERSTATES what has
// been discovered, so a lost bit produces a duplicate discovery entry,
// never a missed one. Ground truth is committed at the level barrier
// by a single goroutine:
//
//   - During a level, workers filter edges through the advisory `marks`
//     (atomic load, relaxed store, lossy; they accumulate every lane discovered
//     this run, committed levels included, so they subsume the seen
//     check at one cache line per edge) and append (parent, vertex,
//     lanes) discovery entries to private buffers. Frontier entries are
//     dispatched from a shared cursor with the paper's optimistic
//     load-then-store advance (Figure 1): a torn advance re-hands a
//     segment to two workers, which duplicates entries and nothing else.
//   - At the barrier, the driver dedups every entry against `seen` (its
//     only reader), commits per-lane dist/parent for newly set bits,
//     and merges the surviving entries into a per-vertex next frontier.
//     A lane bit set redundantly by racing workers collapses here into
//     one commit — the benign duplicate, in lane form.
//
// The barrier commits into vertex-major working arrays (one vertex's
// lanes share a few cache lines; the lane-major layout would scatter
// every committed bit NumVertices apart) and finish transposes them
// block-wise into the lane-major arrays the Lane views alias. Pooled
// state is invalidated per run by the masks rather than an epoch per
// entry: a lane's slice is normalized (Unreached / no-parent) during
// the transpose, gated on the committed seen bit, so stale values from
// earlier runs can never leak into a Lane view.
//
// Tithi et al. 2022 (the MS-BFS compaction line) turn dense lane
// frontiers back into queues with an atomic-free prefix sum; here the
// barrier commit plays that role — it is already single-threaded, so
// the compaction needs no atomics by construction.

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"optibfs/internal/graph"
)

// MSBFSL names the fused multi-source lockfree variant in errors and
// reports. It is not part of Algorithms: the fused engine serves the
// batching layer and is validated per-lane against the serial oracle,
// not benchmarked as a paper variant.
const MSBFSL Algorithm = "MS_BFSL"

// MaxLanes is the lane capacity of one fused run: one bit per source
// in a uint64 mask.
const MaxLanes = 64

// msEntry is one discovery record: worker found vertex v reachable on
// the lanes in m, through parent u. Frontier entries reuse the type
// with u unused.
type msEntry struct {
	u, v int32
	m    uint64
}

// laneMark packs a vertex's advisory lane mask with its validity stamp
// so the expand fast path touches one cache line per edge. Both fields
// are accessed with atomic loads and relaxed stores only; the 8-byte slot alignment
// the pad buys keeps mask atomically addressable on every platform.
type laneMark struct {
	mask  uint64
	epoch uint32
	_     uint32
}

// msMeta is the barrier's per-vertex record: the committed lane mask
// with its run stamp, and the vertex's next-frontier slot with its
// level stamp. Single-threaded state — no atomics anywhere.
type msMeta struct {
	seen   uint64
	sepoch uint32
	fepoch uint32
	fidx   int32
}

// LaneResult is one source's view of a fused run. Dist and Parent
// alias the engine's pooled lane-major arrays and are valid only until
// the engine's next run; callers that keep them must copy.
type LaneResult struct {
	// Src is the lane's source vertex.
	Src int32
	// Dist holds the lane's BFS level per vertex (graph.Unreached if
	// the lane did not reach it).
	Dist []int32
	// Parent holds the lane's BFS-tree parent per reached vertex
	// (source's parent is itself; -1 elsewhere).
	Parent []int32
	// Levels is the number of BFS levels the lane explored.
	Levels int32
	// Reached counts the lane's reached vertices, including the source.
	Reached int64
	// EdgesTraversed is the lane's TEPS numerator (edges incident to
	// reached vertices).
	EdgesTraversed int64
	// Truncated reports that the lane retired at its goal (target
	// settled or depth bound reached with frontier remaining) rather
	// than by exhausting its frontier; see RunGoals. A retired lane's
	// Dist/Parent are exact for every committed level, exactly like a
	// solo Result.Truncated run's.
	Truncated bool
}

// MSResult reports one fused run. Lane views alias pooled engine
// state; see LaneResult.
type MSResult struct {
	// Lanes is the number of fused sources.
	Lanes int
	// Levels is the number of completed fused levels (the max over
	// lanes; an aborted run stops all lanes at the same barrier).
	Levels int32
	// EdgesScanned is the total adjacency entries the fused expansion
	// examined across all levels and workers — the denominator lane
	// retirement shrinks: a retired lane's bits leave the frontier
	// masks, so remaining lanes filter and scan strictly less.
	EdgesScanned int64
	lanes        []LaneResult
}

// Lane returns lane i's view.
func (r *MSResult) Lane(i int) *LaneResult { return &r.lanes[i] }

// MSEngine is a reusable fused multi-source BFS engine bound to one
// graph. Like Engine it is single-caller: at most one fused run at a
// time; pooled state is invalidated per run via epoch stamps so warm
// runs allocate only on frontier high-water growth.
type MSEngine struct {
	g   *graph.CSR
	opt Options

	// meta holds the barrier-private per-vertex state — the committed
	// lane masks plus the frontier-dedup slot — packed into one struct
	// so a commit touches one cache line of metadata, not three
	// scattered arrays. Written only at level barriers and read only
	// there and in finish; workers never touch it (the advisory marks
	// subsume the seen check for filtering). marks is the advisory
	// per-vertex mask+epoch, atomic load, relaxed store, lossy; mask
	// and stamp share a cache line so the per-edge fast path costs one
	// line, not two.
	meta  []msMeta
	marks []laneMark
	cur   uint32
	fcur  uint32

	// Two layouts of the per-lane dist/parent state. The barrier
	// commits (dist, parent) as adjacent pairs into the vertex-major
	// working array (work[(v*laneCap+L)*2]) where one vertex's lanes
	// share a handful of cache lines — the lane-major layout would
	// scatter every committed bit to its own line, NumVertices apart.
	// finish transposes block-wise into the lane-major output arrays
	// (dist[L*n+v]) that LaneResult views alias. Grown to the lane
	// high-water mark.
	work         []int32
	dist, parent []int32
	laneCap      int

	cfr, nfr []msEntry   // current / next frontier (double-buffered)
	out      [][]msEntry // per-worker private discovery buffers
	front    int64       // atomic dispatch cursor over cfr
	scanned  []int64     // per-worker adjacency entries examined

	// Per-lane goals (RunGoals). active is the mask of lanes still
	// traversing; a lane whose goal closes is retired at the barrier —
	// cleared from active and filtered out of the next frontier, so
	// remaining lanes expand strictly smaller masks. laneTrunc records
	// which lanes retired at a goal (vs draining naturally), feeding
	// LaneResult.Truncated. All barrier-private: the masks change only
	// in the single-threaded commit path, and expand never reads them.
	goals     [MaxLanes]Goal
	hasGoals  bool
	active    uint64
	laneTrunc uint64

	chaos ChaosHook
	yield bool // oversubscribed: Gosched at segment boundaries

	// crew runs the expansion phases; expandFn is expandPhase bound
	// once, so a warm fused level allocates nothing. ctl is the
	// run-control every engine shares (recover.go): abort word,
	// heartbeats, poisoned bit and the optional stall watchdog.
	crew     *crew
	expandFn func(id int)
	ctl      *runCtl

	level  int32 // completed levels
	closed bool

	res MSResult
}

// NewMSEngine builds a fused engine over g. Options.Workers, Seed,
// Chaos and StallTimeout are honored — the last arms the same stall
// watchdog (and mid-level ctx assist) as Engine's; parents are always
// tracked (the fused engine exists to serve per-query answers).
func NewMSEngine(g *graph.CSR, opt Options) (*MSEngine, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	opt = opt.withDefaults()
	n := g.NumVertices()
	e := &MSEngine{
		g:       g,
		opt:     opt,
		meta:    make([]msMeta, n),
		marks:   make([]laneMark, n),
		out:     make([][]msEntry, opt.Workers),
		scanned: make([]int64, opt.Workers),
		chaos:   opt.Chaos,
		yield:   opt.Workers > runtime.GOMAXPROCS(0),
	}
	for i := range e.out {
		e.out[i] = make([]msEntry, 0, 256)
	}
	e.expandFn = e.expandPhase
	e.ctl = newRunCtl(MSBFSL, opt.Workers, opt.StallTimeout)
	e.crew = newCrew(opt.Workers, MSBFSL, 0)
	return e, nil
}

// Graph returns the graph the engine is bound to.
func (e *MSEngine) Graph() *graph.CSR { return e.g }

// SetChaos installs (or removes) a chaos hook between runs.
func (e *MSEngine) SetChaos(h ChaosHook) { e.chaos = h }

// Close stops the engine's crew; further runs fail. Idempotent.
func (e *MSEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.crew.close()
}

// growLanes ensures both per-lane layouts hold at least lanes lanes.
// The vertex-major working stride is laneCap, so growth invalidates
// the working arrays — safe because growth happens only between runs.
func (e *MSEngine) growLanes(lanes int) {
	if lanes <= e.laneCap {
		return
	}
	n := int(e.g.NumVertices())
	e.work = make([]int32, n*lanes*2)
	e.dist = make([]int32, lanes*n)
	e.parent = make([]int32, lanes*n)
	if cap(e.res.lanes) < lanes {
		e.res.lanes = make([]LaneResult, lanes)
	}
	e.laneCap = lanes
}

// Run executes one fused search; see RunContext.
func (e *MSEngine) Run(sources []int32) (*MSResult, error) {
	return e.RunContext(context.Background(), sources)
}

// RunContext fuses len(sources) BFS searches (1..MaxLanes, duplicates
// allowed) into one bit-parallel traversal, under Engine.RunContext's
// contract: cancellation is observed at level boundaries (mid-level
// too with Options.StallTimeout set, through the watchdog's ctx
// assist); a canceled or stalled run commits the level in flight and
// returns the partial per-lane results alongside ctx's error or a
// *StallError, with the engine fully reusable. A worker panic poisons
// the engine (see ErrPoisoned) and returns a *WorkerPanicError with
// the partial results.
func (e *MSEngine) RunContext(ctx context.Context, sources []int32) (*MSResult, error) {
	return e.RunGoals(ctx, sources, nil)
}

// RunGoals is RunContext with one termination goal per lane: goals is
// nil (no goals anywhere) or one Goal per source, zero Goals running
// unbounded. A lane whose goal closes is retired at the level barrier —
// its bit leaves the advisory frontier masks, so the remaining lanes
// traverse strictly less — and its LaneResult (marked Truncated) demuxes
// the exact early answer: every committed level's distances match a
// solo goal-directed run's. The fused run ends when every lane has
// drained or retired.
func (e *MSEngine) RunGoals(ctx context.Context, sources []int32, goals []Goal) (*MSResult, error) {
	if e.closed {
		return nil, fmt.Errorf("core: ms engine is closed")
	}
	if e.ctl.poisoned {
		return nil, ErrPoisoned
	}
	if len(sources) == 0 || len(sources) > MaxLanes {
		return nil, fmt.Errorf("core: %d sources out of range [1,%d]", len(sources), MaxLanes)
	}
	if goals != nil && len(goals) != len(sources) {
		return nil, fmt.Errorf("core: %d goals for %d sources", len(goals), len(sources))
	}
	n := e.g.NumVertices()
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("core: source %d out of range [0,%d)", s, n)
		}
	}
	e.hasGoals = false
	for lane := range goals {
		if err := goals[lane].Validate(n); err != nil {
			return nil, err
		}
		e.goals[lane] = goals[lane]
		if goals[lane].Bounded() {
			e.hasGoals = true
		}
	}
	e.ctl.begin(ctx)
	e.growLanes(len(sources))
	e.beginRun(sources)
	// A target that is its own source is settled by seeding; retire it
	// before the first level rather than traversing for it.
	e.retireLanes()
	e.runLevels()
	err := e.ctl.end()
	return e.finish(sources), err
}

// beginRun primes pooled state: epoch bump invalidates every mask in
// O(1), the frontier is seeded with the sources merged by vertex (two
// lanes sharing a source share one entry), and per-lane level-0 state
// is committed directly.
func (e *MSEngine) beginRun(sources []int32) {
	e.cur++
	if e.cur == 0 {
		// uint32 wraparound: sweep the epoch fields once per 2^32-1
		// runs, as state.beginRun does.
		for i := range e.meta {
			e.meta[i].sepoch = 0
			e.marks[i].epoch = 0
		}
		e.cur = 1
	}
	e.level = 0
	atomic.StoreInt64(&e.front, 0)
	for i := range e.scanned {
		e.scanned[i] = 0
	}
	if len(sources) == MaxLanes {
		e.active = ^uint64(0)
	} else {
		e.active = (uint64(1) << uint(len(sources))) - 1
	}
	e.laneTrunc = 0
	e.cfr = e.cfr[:0]
	stride := e.laneCap
	for lane, s := range sources {
		bit := uint64(1) << uint(lane)
		mt := &e.meta[s]
		if mt.sepoch == e.cur {
			// Another lane already seeded this vertex: merge masks.
			mt.seen |= bit
			for i := range e.cfr {
				if e.cfr[i].v == s {
					e.cfr[i].m |= bit
					break
				}
			}
		} else {
			mt.seen = bit
			mt.sepoch = e.cur
			e.cfr = append(e.cfr, msEntry{v: s, m: bit})
		}
		slot := (int(s)*stride + lane) * 2
		e.work[slot] = 0
		e.work[slot+1] = s
	}
}

// runLevels drives the fused level loop: one crew phase of parallel
// expansion, then the single-threaded barrier commit, until the
// frontier drains or the run is canceled or aborted. A cooperative
// abort (stall, cancel) still commits the level in flight — every
// entry a worker appended names a genuine next-level discovery, so the
// partial lanes understate and never lie — while a panic leaves the
// abandoned buffers uncommitted.
func (e *MSEngine) runLevels() {
	for len(e.cfr) > 0 && !e.ctl.aborted() && !e.ctl.canceled() {
		atomic.StoreInt64(&e.front, 0)
		e.ctl.run(e.crew, e.expandFn)
		if e.ctl.panicked() {
			return
		}
		e.commitLevel()
		e.retireLanes()
	}
}

// expandPhase is one worker's fused level under the recovery barrier:
// ChaosStall first, as in workerLevel, then the expansion.
func (e *MSEngine) expandPhase(id int) {
	defer e.ctl.recoverWorker(id)
	e.chaosAt(ChaosStall, id, int64(e.level))
	e.expand(id)
}

// retireLanes is the barrier-time per-lane goal check, run after each
// commit (and once after seeding, for a target that equals its source).
// A lane retires when its depth bound has been reached or its target's
// seen bit has committed; retirement clears the lane from the active
// mask and filters its bits out of the just-built frontier, so every
// remaining expansion carries strictly smaller masks. The check reads
// only barrier-committed state (meta, level, cfr) on the driver
// goroutine — the same no-new-synchronization argument as
// state.goalDone, in lane-mask form.
func (e *MSEngine) retireLanes() {
	if !e.hasGoals || e.active == 0 {
		return
	}
	// present marks lanes with frontier entries left: a lane at its
	// depth bound with work remaining was truncated, one whose frontier
	// drained on its own merely finished.
	var present uint64
	for _, ent := range e.cfr {
		present |= ent.m
	}
	act := e.active
	for b := act; b != 0; b &= b - 1 {
		lane := bits.TrailingZeros64(b)
		bit := uint64(1) << uint(lane)
		g := e.goals[lane]
		if g.MaxDepth > 0 && e.level >= g.MaxDepth {
			act &^= bit
			e.laneTrunc |= present & bit
			continue
		}
		if t := g.TargetVertex(); t >= 0 {
			mt := &e.meta[t]
			if mt.sepoch == e.cur && mt.seen&bit != 0 {
				act &^= bit
				e.laneTrunc |= bit
			}
		}
	}
	if act != e.active {
		e.active = act
		e.filterFrontier()
	}
}

// filterFrontier drops retired lanes' bits from the current frontier,
// compacting in place (safe: the write index never passes the read
// index). Entries whose masks empty out vanish entirely, so a level
// all of whose discoveries belonged to retired lanes ends the run.
// Stale advisory marks for retired lanes are harmless: marks only
// filter candidates, and candidate masks no longer carry retired bits.
func (e *MSEngine) filterFrontier() {
	out := e.cfr[:0]
	for _, ent := range e.cfr {
		if m := ent.m & e.active; m != 0 {
			ent.m = m
			out = append(out, ent)
		}
	}
	e.cfr = out
}

// expand is one worker's share of a level: dispatch frontier segments
// from the shared cursor with the optimistic load-then-store advance,
// scan each entry's adjacency, and append discoveries to the private
// buffer. Duplicated segments (torn advances) and lost advisory-mask
// bits both surface as duplicate entries for the barrier to collapse.
// Each segment fetch beats the worker's heartbeat and checks the abort
// word — one load each, and no context call, whose mutex would put a
// locked instruction on every segment.
func (e *MSEngine) expand(id int) {
	g, ctl := e.g, e.ctl
	beat := &ctl.beats[id]
	cur := e.cur
	buf := e.out[id][:0]
	total := int64(len(e.cfr))
	cfr, marks := e.cfr, e.marks
	var scanned int64
	for {
		beat.bump()
		if ctl.aborted() {
			break
		}
		f := atomic.LoadInt64(&e.front)
		if f >= total {
			break
		}
		// Adaptive segments, shrinking as the frontier drains so late
		// fetches stay balanced (same rule as segmentSize).
		seg := (total-f)/int64(8*e.opt.Workers) + 1
		if seg > 1024 {
			seg = 1024
		}
		e.chaosAt(ChaosFrontStore, id, f+seg)
		// Optimistic advance: load-then-store, no RMW. Racing workers
		// may re-take [f, f+seg) — duplicate entries only.
		storeRelaxed64(&e.front, f+seg)
		hi := f + seg
		if hi > total {
			hi = total
		}
		for _, ent := range cfr[f:hi] {
			v, mv := ent.v, ent.m
			nb := g.Neighbors(v)
			scanned += int64(len(nb))
			for _, x := range nb {
				// Advisory filter: the marks accumulate every lane ever
				// discovered for x this run (committed levels included),
				// so they subsume the seen check — one cache line per
				// edge. Lossy and understate-only: a lost bit means a
				// duplicate entry for the barrier, never a miss.
				mk := &marks[x]
				var m uint64
				if atomic.LoadUint32(&mk.epoch) == cur {
					m = atomic.LoadUint64(&mk.mask)
				}
				cand := mv &^ m
				if cand == 0 {
					continue
				}
				storeRelaxedU64(&mk.mask, m|cand)
				if m == 0 {
					// Stamp published after the payload store, as in
					// state.discover: a racer that sees the stamp is
					// ordered after a valid mask.
					storeRelaxedU32(&mk.epoch, cur)
				}
				buf = append(buf, msEntry{u: v, v: x, m: cand})
			}
		}
		if e.yield {
			// Oversubscribed: hand the thread to a peer once per
			// segment so dispatch stays fair, as state.maybeYield does.
			runtime.Gosched()
		}
	}
	e.out[id] = buf
	e.scanned[id] += scanned
}

// commitLevel is the barrier: dedup every discovery entry against the
// committed masks, write per-lane dist/parent for newly set bits, and
// build the next frontier. Single-threaded, so the compaction needs no
// atomics — the crew's join edge orders it after every worker store.
//
// The next frontier is merged PER VERTEX: a vertex whose new lanes
// arrive through several discovery entries (distinct parents, or
// duplicates from lost advisory bits and torn segment advances) gets
// one frontier slot with the union mask, not one slot per entry.
// Without the merge a hub reached by k parents is rescanned k times
// next level, and on skewed graphs that multiplies edge work back up
// to per-query levels — the merge is what makes the fused run cheaper
// than its lanes run solo.
func (e *MSEngine) commitLevel() {
	stride := e.laneCap
	e.fcur++
	if e.fcur == 0 {
		for i := range e.meta {
			e.meta[i].fepoch = 0
		}
		e.fcur = 1
	}
	next := e.nfr[:0]
	d := e.level + 1
	for id := range e.out {
		for _, ent := range e.out[id] {
			mt := &e.meta[ent.v]
			var seen uint64
			if mt.sepoch == e.cur {
				seen = mt.seen
			}
			newBits := ent.m &^ seen
			if newBits == 0 {
				continue
			}
			mt.seen = seen | newBits
			mt.sepoch = e.cur
			row := int(ent.v) * stride * 2
			for b := newBits; b != 0; b &= b - 1 {
				slot := row + bits.TrailingZeros64(b)*2
				e.work[slot] = d
				e.work[slot+1] = ent.u
			}
			if mt.fepoch == e.fcur {
				next[mt.fidx].m |= newBits
			} else {
				mt.fepoch = e.fcur
				mt.fidx = int32(len(next))
				next = append(next, msEntry{v: ent.v, m: newBits})
			}
		}
		e.out[id] = e.out[id][:0]
	}
	e.nfr = e.cfr
	e.cfr = next
	e.level = d
	e.ctl.setLevel(d)
}

// finish demuxes the committed vertex-major working state into the
// lane-major per-lane views, normalizing each lane's slice (stale
// entries become Unreached / no-parent, gated on the committed seen
// bit) and computing the lane counters in the same pass. The transpose
// is cache-blocked: a block of working rows is streamed once per lane
// while it is still resident, and each lane's writes are sequential.
func (e *MSEngine) finish(sources []int32) *MSResult {
	n := int(e.g.NumVertices())
	stride := e.laneCap
	res := &e.res
	res.Lanes = len(sources)
	res.Levels = e.level
	res.EdgesScanned = 0
	for _, s := range e.scanned {
		res.EdgesScanned += s
	}
	res.lanes = res.lanes[:len(sources)]
	for lane, src := range sources {
		lr := &res.lanes[lane]
		*lr = LaneResult{
			Src:       src,
			Dist:      e.dist[lane*n : (lane+1)*n],
			Parent:    e.parent[lane*n : (lane+1)*n],
			Truncated: e.laneTrunc&(uint64(1)<<uint(lane)) != 0,
		}
	}
	var maxD [MaxLanes]int32
	for i := range maxD {
		maxD[i] = -1
	}
	const blk = 1024
	// Per-block scratch: the committed mask and out-degree of each
	// vertex, derived once instead of once per lane.
	var sm [blk]uint64
	var dg [blk]int64
	work := e.work
	for v0 := 0; v0 < n; v0 += blk {
		v1 := v0 + blk
		if v1 > n {
			v1 = n
		}
		for v := v0; v < v1; v++ {
			mt := &e.meta[v]
			if mt.sepoch == e.cur {
				sm[v-v0] = mt.seen
			} else {
				sm[v-v0] = 0
			}
			dg[v-v0] = e.g.OutDegree(int32(v))
		}
		for lane := range res.lanes {
			lr := &res.lanes[lane]
			bit := uint64(1) << uint(lane)
			reached, edges := lr.Reached, lr.EdgesTraversed
			md := maxD[lane]
			for v := v0; v < v1; v++ {
				if sm[v-v0]&bit != 0 {
					slot := (v*stride + lane) * 2
					dv := work[slot]
					lr.Dist[v] = dv
					lr.Parent[v] = work[slot+1]
					reached++
					edges += dg[v-v0]
					if dv > md {
						md = dv
					}
				} else {
					lr.Dist[v] = graph.Unreached
					lr.Parent[v] = -1
				}
			}
			lr.Reached, lr.EdgesTraversed = reached, edges
			maxD[lane] = md
		}
	}
	for lane := range res.lanes {
		lr := &res.lanes[lane]
		if lr.Truncated {
			// A retired lane's deepest settled vertices are its final
			// frontier, which sits beyond the closed levels — the same
			// convention as a truncated solo Result.
			lr.Levels = maxD[lane]
		} else {
			lr.Levels = maxD[lane] + 1
		}
	}
	return res
}

// chaosAt forwards to the installed hook (nil-check only when unset).
func (e *MSEngine) chaosAt(point ChaosPoint, worker int, value int64) {
	if e.chaos != nil {
		e.chaos.At(point, worker, value)
	}
}
