package core

// In-core direction-optimizing traversal (Options.Hybrid): the Beamer,
// Asanović & Patterson hybrid fused into the lockfree level loop
// instead of wrapped around it. The public DirectionOptimizing
// algorithm is BFS_WSL with this mode on. The pieces:
//
//   - Bottom-up levels keep the frontier as a dense uint64 bitmap.
//     Bits are written with plain stores: within a level each worker
//     writes only words of its own 64-aligned vertex range, and a
//     redundantly set bit is the same benign duplicate the queue
//     protocol already tolerates, so the kernel needs no locks and no
//     atomic RMW — the paper's discipline carried to the bitmap
//     representation.
//   - The bottom-up kernel scans each unvisited owned vertex over the
//     cached transpose's in-edges and claims it on the first in-
//     neighbor found in the current frontier. Every write (dist,
//     parent, epoch stamp, frontier bit) targets vertex-owned state,
//     so the kernel is race-free by construction; the epoch stamp is
//     published with the same meaning as everywhere else.
//   - The alpha/beta switch is evaluated at the level barrier from
//     exact frontier counters. Top-down frontiers are deduplicated by
//     a single test-and-set walk over the promoted in-queues (the
//     queues hold duplicates from racing discoveries), so the decision
//     never sees the duplicate-inflated estimates that make a
//     queue-volume count drift; bottom-up frontiers are exact for
//     free (per-vertex ownership admits no duplicates).
//   - Switching back top-down compacts the bitmap into the batched
//     queue publication path with an atomics-free prefix-sum pass in
//     the style of Tithi, Fogel & Chowdhury (2022): per-worker-range
//     popcounts size each worker's queue exactly (the popcount vector
//     is the prefix-sum input, and the per-queue layout makes each
//     worker's running offset the start of its own queue, so the scan
//     degenerates to one pass per range), then set bits scatter into
//     the queues in vertex order. The pass runs single-threaded inside
//     the barrier: switches are rare (a handful per search) and the
//     bindings' setup functions may read the queue contents the scatter
//     writes, so publishing from the barrier is what keeps every
//     family's dispatch machinery oblivious to where the frontier came
//     from.
//
// Drivers call hybridAdvance (or ShardedEngine.hybridAdvance) after
// every swap; it is a no-op unless the state was built with
// Options.Hybrid.

import (
	"math/bits"
	"sync/atomic"

	"optibfs/internal/graph"
)

// hyLane is one worker's per-level frontier accumulators, padded so
// neighboring workers' hot counters do not share a cache line. mf is
// the claimed vertices' summed in-row length — valid as their out-edge
// sum straight from the kernel (len(in-row) when degEq, outdeg[]
// otherwise);
// accumulating it is a register add either way, never a memory load.
type hyLane struct {
	nf int64 // vertices this worker discovered this level
	mf int64 // their summed out-degree
	_  [48]byte
}

// hybridState is the per-state half of direction optimization: the
// bitmap frontier pair, the per-worker scan ranges, and (for a plain
// Engine) the barrier-time decision variables. Under a ShardedEngine
// curBits aliases the engine's global frontier bitmap and the decision
// variables live on the engine's shardedHybrid instead.
type hybridState struct {
	tg *graph.CSR // cached transpose; in-edges for bottom-up scans

	// curBits is the current frontier (read by every worker during a
	// bottom-up level); nextBits receives discoveries and doubles as
	// the top-down dedup filter at the barrier. Invariant: nextBits is
	// all-zero at every top-down barrier — dedupFrontier test-and-sets
	// into it and every decision path cleans up (or promotes) the bits
	// it set, and beginRunCommon re-clears wholesale so aborted runs
	// cannot leak stale bits into the next search.
	curBits  []uint64
	nextBits []uint64

	lanes  []hyLane
	lo, hi []int32 // per-worker vertex ranges; interior bounds 64-aligned

	// degEq reports that every vertex's in-degree equals its out-degree
	// (true for the symmetrized graphs bottom-up is usually worth
	// running on). When set, a bottom-up level's frontier out-edge sum
	// is accumulated in the kernel from len(in-row) — already in a
	// register at claim time. When it does not hold, outdeg carries the
	// out-degrees as one int32 per vertex: claims walk v in ascending
	// order, so the kernel-side accumulation is a dense sequential
	// stream — a quarter of the traffic of hitting the int64 offsets
	// pairs, and far cheaper than a separate barrier-time degree walk.
	degEq  bool
	outdeg []int32 // nil iff degEq

	// unvisBits tracks the still-unvisited vertices across one
	// bottom-up phase. The first bottom-up level after a switch builds
	// it as a side effect of its epoch-driven scan (unvisValid false →
	// true at the barrier); subsequent levels iterate its set bits
	// instead of re-scanning the whole epoch array, clearing each bit
	// they claim — so a vertex visited in an earlier level costs 1/64th
	// of a word load instead of an epoch compare, and an unvisited one
	// needs no epoch load at all. Plain stores: lane interiors are
	// word-aligned and shard boundary words live in per-shard arrays.
	// Invalidated on every top-down→bottom-up switch and at run reset,
	// so staleness from intervening top-down levels is impossible.
	unvisBits  []uint64
	unvisValid bool

	bottomUp bool  // current direction (the level about to run)
	curCount int64 // owned-frontier size while bottomUp (volume())

	// Decision state (plain Engine only; a ShardedEngine keeps the
	// global copy on its shardedHybrid). unexplored follows the
	// classic Beamer convention: the out-edge budget *after*
	// subtracting the frontier under decision, seeded as m − outdeg(src).
	unexplored int64
	prevNf     int64
	alpha      int64
	beta       int64
}

// newHybridState builds the hybrid machinery for one state over g,
// computing (or fetching) the cached transpose eagerly so the first
// Run pays no lazy-build allocation. Scan ranges cover [0, n) and are
// re-partitioned by a ShardedEngine to the shard's owned range.
func newHybridState(g *graph.CSR, opt Options) *hybridState {
	n := g.NumVertices()
	words := (int(n) + 63) / 64
	alpha, beta := opt.Alpha, opt.Beta
	if alpha <= 0 {
		// States built directly from zero-valued Options (protocol
		// tests) bypass withDefaults, like allocState's blkSize guard.
		alpha = 15
	}
	if beta <= 0 {
		beta = 18
	}
	hy := &hybridState{
		tg:        g.Transpose(),
		curBits:   make([]uint64, words),
		nextBits:  make([]uint64, words),
		unvisBits: make([]uint64, words),
		lanes:     make([]hyLane, opt.Workers),
		alpha:     alpha,
		beta:      beta,
	}
	hy.lo, hy.hi = hybridRanges(0, n, opt.Workers)
	hy.degEq = degreesEqual(g, hy.tg)
	if !hy.degEq {
		hy.outdeg = make([]int32, n)
		for v := int32(0); v < n; v++ {
			hy.outdeg[v] = int32(g.OutDegree(v))
		}
	}
	return hy
}

// degreesEqual reports whether every vertex's out-degree in g matches
// its in-degree (out-degree in tg) — one O(n) offsets comparison at
// engine build. Degree equality per vertex is exactly the condition
// under which summing in-row lengths of a discovered set equals its
// out-edge sum, which is all the mf accounting needs.
func degreesEqual(g, tg *graph.CSR) bool {
	a, b := g.Offsets, tg.Offsets
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hybridRanges splits [lo, hi) into p contiguous ranges with interior
// boundaries aligned to 64-vertex (one bitmap word) multiples, so no
// two workers' plain stores ever touch the same nextBits word. lo and
// hi themselves need no alignment: a shard's boundary words are
// private to that shard's bitmap arrays.
func hybridRanges(lo, hi int32, p int) (los, his []int32) {
	los, his = make([]int32, p), make([]int32, p)
	n := int64(hi) - int64(lo)
	prev := lo
	for k := 0; k < p; k++ {
		b := hi
		if k < p-1 {
			b = lo + int32(n*int64(k+1)/int64(p))
			b = (b + 63) &^ 63
			if b > hi {
				b = hi
			}
			if b < prev {
				b = prev
			}
		}
		los[k], his[k] = prev, b
		prev = b
	}
	return
}

// resetHybrid re-primes the hybrid machinery for a new run: direction
// back to top-down, the dedup/discovery bitmap cleared (an aborted run
// can abandon it mid-write), and the decision budget restored to the
// full edge count (seedSource subtracts the source's degree to match
// the classic Beamer convention). The O(n/64) word clear is the only
// per-run cost.
func (st *state) resetHybrid() {
	hy := st.hy
	hy.bottomUp = false
	hy.curCount = 0
	hy.unexplored = st.g.NumEdges()
	hy.prevNf = 1
	for i := range hy.lanes {
		hy.lanes[i] = hyLane{}
	}
	for i := range hy.nextBits {
		hy.nextBits[i] = 0
	}
	hy.unvisValid = false
}

// buCheckPeriod is how many scanned vertices a bottom-up worker
// processes between heartbeat/abort checks (and oversubscription
// yields) — the kernel's dispatch boundary for the watchdog.
const buCheckPeriod = 4096

// buLevel is one worker's bottom-up level: clear this worker's slice
// of the discovery bitmap, then scan every unvisited vertex of the
// worker's range over its in-edges, claiming it on the first in-
// neighbor present in the current frontier. All writes are plain
// stores to vertex-owned state — dist/parent/epoch/bit of v are
// written only by v's range owner, and the level barriers order them
// against the atomic accesses of surrounding top-down levels — so the
// kernel is race-free without locks or atomic RMW.
//
// Counter contract (mirrors the top-down kernels so PerWorker sums
// compare across directions): VerticesPopped counts unvisited vertices
// whose adjacency was walked, EdgesScanned counts in-edges actually
// inspected (the early exit makes it a partial scan), Discovered
// counts claims.
func (st *state) buLevel(id int) {
	hy := st.hy
	lo, hi := hy.lo[id], hy.hi[id]
	next := hy.nextBits
	if lo < hi {
		for w, end := int(lo)>>6, (int(hi)+63)>>6; w < end; w++ {
			next[w] = 0
		}
	}
	// Every st.* indirection is hoisted out of the scan: the claim
	// stores below could alias state fields for all the compiler knows,
	// so un-hoisted loads of epoch/dist/cur re-run per vertex and cost
	// more than the bitmap tests that are this kernel's actual work.
	// The scan itself is split from the claim — the inner loop does
	// nothing but bitmap membership tests, and the (rarer) claim runs
	// after the early exit — which also makes the edges-inspected count
	// a single add instead of a per-edge increment.
	cur := hy.curBits
	epoch, stamp := st.epoch, st.cur
	dist, lvl := st.dist, st.level+1
	parent := st.parent
	toff, tedges := hy.tg.Offsets, hy.tg.Edges
	unvis := hy.unvisBits
	outdeg := hy.outdeg // nil when degEq: len(in-row) is the out-degree
	var pops, edges, disc, mf int64
	// The heartbeat runs once per buCheckPeriod-sized chunk rather than
	// via a per-vertex countdown: a decrement-and-branch on every
	// scanned vertex — visited ones included — measurably taxed the scan
	// (the whole point of this kernel is that the common case is a
	// bitmap test and nothing else). The chunk bound replaces it for
	// free: the inner loop already compares v against something.
	if !hy.unvisValid && lo < hi {
		// First bottom-up level of a phase: epoch-driven scan over the
		// whole range, accumulating the unvisited bitmap (claimed and
		// already-visited vertices excluded) for the rest of the phase.
		var acc uint64
		accW := int(lo) >> 6
		for v := lo; v < hi; {
			chunk := hi
			if c := int64(v) + buCheckPeriod; c < int64(chunk) {
				chunk = int32(c)
			}
			for ; v < chunk; v++ {
				if w := int(v) >> 6; w != accW {
					unvis[accW] = acc
					acc, accW = 0, w
				}
				if epoch[v] == stamp {
					continue
				}
				pops++
				nb := tedges[toff[v]:toff[v+1]]
				hit := -1
				for j, u := range nb {
					if cur[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
						hit = j
						break
					}
				}
				if hit < 0 {
					edges += int64(len(nb))
					acc |= 1 << (uint32(v) & 63)
					continue
				}
				edges += int64(hit + 1)
				dist[v] = lvl
				if parent != nil {
					parent[v] = nb[hit]
				}
				epoch[v] = stamp
				disc++
				if outdeg == nil {
					mf += int64(len(nb))
				} else {
					mf += int64(outdeg[v])
				}
				next[uint32(v)>>6] |= 1 << (uint32(v) & 63)
			}
			if v >= hi {
				break
			}
			st.beat(id)
			if st.aborted() {
				break
			}
			st.maybeYield()
		}
		unvis[accW] = acc
	} else if lo < hi {
		// Later levels of the phase: iterate only the set (unvisited)
		// bits, clearing each claim behind itself. No epoch loads — the
		// bit is the authoritative unvisited test within a phase.
		const wordChunk = buCheckPeriod >> 6
		for w, end := int(lo)>>6, (int(hi)+63)>>6; w < end; {
			chunk := end
			if c := w + wordChunk; c < chunk {
				chunk = c
			}
			for ; w < chunk; w++ {
				b := unvis[w]
				if b == 0 {
					continue
				}
				base := int32(w << 6)
				for rem := b; rem != 0; rem &= rem - 1 {
					v := base + int32(bits.TrailingZeros64(rem))
					pops++
					nb := tedges[toff[v]:toff[v+1]]
					hit := -1
					for j, u := range nb {
						if cur[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
							hit = j
							break
						}
					}
					if hit < 0 {
						edges += int64(len(nb))
						continue
					}
					edges += int64(hit + 1)
					dist[v] = lvl
					if parent != nil {
						parent[v] = nb[hit]
					}
					epoch[v] = stamp
					disc++
					if outdeg == nil {
						mf += int64(len(nb))
					} else {
						mf += int64(outdeg[v])
					}
					b &^= 1 << (uint32(v) & 63)
					next[uint32(v)>>6] |= 1 << (uint32(v) & 63)
				}
				unvis[w] = b
			}
			if w >= end {
				break
			}
			st.beat(id)
			if st.aborted() {
				break
			}
			st.maybeYield()
		}
	}
	c := &st.counters[id]
	c.VerticesPopped += pops
	c.EdgesScanned += edges
	c.Discovered += disc
	hy.lanes[id].nf = disc
	hy.lanes[id].mf = mf
	st.beat(id)
}

// dedupFrontier counts the just-promoted top-down frontier exactly:
// one single-threaded walk over the in-queues, test-and-setting each
// vertex's bit in nextBits so racing discoverers' duplicate entries
// count once. Returns the deduplicated vertex count and summed
// out-degree. The set bits stay behind deliberately — they *are* the
// frontier bitmap if the decision switches bottom-up — and every
// caller path clears or promotes them (see hybridState.nextBits).
func (hy *hybridState) dedupFrontier(st *state) (nf, mf int64) {
	next := hy.nextBits
	for i := range st.in {
		q := &st.in[i]
		buf := q.buf[:q.origR]
		for j, s := range buf {
			if s == emptySlot {
				continue
			}
			// Both the bitmap word and the CSR offsets of a frontier
			// vertex are random accesses; touch the lookahead entry's
			// lines now so the dependent loads below are in flight by
			// the time the walk reaches them (same discipline as
			// scanNeighbors' epoch prefetch — atomic so the touch
			// cannot be dead-code-eliminated, race-free because origR
			// is stable at the barrier).
			if j+prefetchWindow < len(buf) {
				if p := buf[j+prefetchWindow]; p != emptySlot {
					_ = atomic.LoadUint64(&next[uint32(p-1)>>6])
					st.prefetchVertex(p - 1)
				}
			}
			v := s - 1
			w, m := uint32(v)>>6, uint64(1)<<(uint32(v)&63)
			if next[w]&m == 0 {
				next[w] |= m
				nf++
				mf += st.g.OutDegree(v)
			}
		}
	}
	return
}

// countFrontierSingle is dedupFrontier for a one-worker state, where
// the claim protocol admits no duplicate queue entries (one worker's
// check-then-store is a plain critical section with itself): counting
// needs no bitmap at all, so the walk skips both the test-and-set here
// and the clearFrontierBits undo pass afterwards — the two walks that
// made every stay-top-down level pay for a switch that never happened.
// If the decision does switch bottom-up, buildFrontierBits constructs
// the bitmap then, once.
func (hy *hybridState) countFrontierSingle(st *state) (nf, mf int64) {
	for i := range st.in {
		q := &st.in[i]
		buf := q.buf[:q.origR]
		for j, s := range buf {
			if s == emptySlot {
				continue
			}
			if j+prefetchWindow < len(buf) {
				if p := buf[j+prefetchWindow]; p != emptySlot {
					st.prefetchVertex(p - 1)
				}
			}
			nf++
			mf += st.g.OutDegree(s - 1)
		}
	}
	return
}

// buildFrontierBits sets the nextBits bit of every queued frontier
// vertex — the deferred half of countFrontierSingle, run only on an
// actual top-down→bottom-up switch. nextBits is clean here (the
// single-worker path never dirtied it), so plain sets suffice.
func (hy *hybridState) buildFrontierBits(st *state) {
	next := hy.nextBits
	for i := range st.in {
		q := &st.in[i]
		for _, s := range q.buf[:q.origR] {
			if s != emptySlot {
				next[uint32(s-1)>>6] |= 1 << (uint32(s-1) & 63)
			}
		}
	}
}

// clearFrontierBits undoes dedupFrontier's test-and-set when the run
// stays top-down: one more walk over the same queue entries, clearing
// each bit (clearing a duplicate's bit twice is harmless). O(frontier),
// not O(n).
func (hy *hybridState) clearFrontierBits(st *state) {
	next := hy.nextBits
	for i := range st.in {
		q := &st.in[i]
		for _, s := range q.buf[:q.origR] {
			if s != emptySlot {
				next[uint32(s-1)>>6] &^= 1 << (uint32(s-1) & 63)
			}
		}
	}
}

// consumeFrontierQueues empties the in-queues on a top-down→bottom-up
// switch: the frontier now lives in the bitmap (dedupFrontier built
// it), so the queue entries are zeroed — keeping the slot audit's
// "every entry consumed" ledger truthful — and the counts reset so
// volume() and the next swap see empty queues.
func (st *state) consumeFrontierQueues() {
	for i := range st.in {
		q := &st.in[i]
		for j := int64(0); j < q.origR; j++ {
			q.buf[j] = emptySlot
		}
		q.origR = 0
		atomic.StoreInt64(&q.front, 0)
	}
}

// exitBottomUp compacts the bitmap frontier (in nextBits, where the
// final bottom-up level left it) back into the in-queues for top-down
// consumption — the atomics-free prefix-sum compaction. Pass one
// popcounts each worker range's words to size its queue exactly (the
// prefix offsets of a p-partitioned layout are exactly the queue
// starts, so the scan is one popcount vector); pass two scatters the
// set bits into the queues in vertex order, zeroing each word behind
// itself to restore the nextBits-clean invariant. With ParentClaim the
// scatter also records queue k as v's claimant so claimAllows admits
// the entry at pop time. Runs single-threaded inside the barrier; see
// the package comment for why.
func (st *state) exitBottomUp() {
	hy := st.hy
	next := hy.nextBits
	for k := range st.in {
		lo, hi := hy.lo[k], hy.hi[k]
		q := &st.in[k]
		buf := q.buf[:0]
		if lo < hi {
			wlo, whi := int(lo)>>6, int(hi-1)>>6
			// Popcount pass: exact entry count for this queue.
			var cnt int
			for w := wlo; w <= whi; w++ {
				word := rangeWord(next, w, wlo, whi, lo, hi)
				cnt += bits.OnesCount64(word)
			}
			if need := cnt + 1; cap(buf) < need {
				buf = make([]int32, 0, need)
			}
			// Scatter pass: set bits → queue entries, in vertex order.
			for w := wlo; w <= whi; w++ {
				word := rangeWord(next, w, wlo, whi, lo, hi)
				next[w] = 0
				for word != 0 {
					v := int32(w<<6) + int32(bits.TrailingZeros64(word))
					buf = append(buf, v+1)
					if st.claim != nil {
						st.claim[v] = int32(k)
					}
					word &= word - 1
				}
			}
		}
		buf = append(buf, emptySlot)
		q.buf = buf
		q.origR = int64(len(buf) - 1)
		atomic.StoreInt64(&q.front, 0)
	}
}

// rangeWord reads bitmap word w masked to the vertex range [lo, hi):
// bits below lo in the first word and at/above hi in the last word are
// dropped. (Out-of-range bits are structurally zero in this package —
// ranges only share words across *shards*, which use separate arrays —
// so the mask is defense in depth, not load-bearing.)
func rangeWord(bm []uint64, w, wlo, whi int, lo, hi int32) uint64 {
	word := bm[w]
	if w == wlo {
		word &= ^uint64(0) << (uint(lo) & 63)
	}
	if w == whi && uint(hi)&63 != 0 {
		word &= (uint64(1) << (uint(hi) & 63)) - 1
	}
	return word
}

// hybridDecide applies the Beamer heuristics to the frontier just
// counted. Accounting follows the classic Beamer convention —
// unexplored excludes the frontier under decision, the alpha test
// additionally requires a growing frontier, and the beta test fires on
// |frontier| < n/beta — plus one refinement the classic heuristic does
// not have: entry is also gated on the frontier either already satisfying the
// beta stay-condition or growing geometrically. Without the gate,
// long plateau phases (meshes: cage*, freescale) oscillate — size
// jitter of a few vertices re-fires the alpha test, the bottom-up
// level pays its Ω(unvisited vertices) scan, and the beta test
// immediately switches back, every few levels for the rest of the
// search. Entering a state the very next decision would leave is
// always a loss; a frontier worth the scan is either large (≥ n/beta,
// so bottom-up persists) or exploding (≥ 2× the previous level, so
// the next frontier will be).
// Goal-directed runs refine the entry decision further (goalBound is
// the number of levels the depth bound still allows, 0 for unbounded;
// goalTarget reports a pending s-t target): with exactly one level
// left the Ω(unvisited) conversion scan can never amortize, so entry
// is refused outright, and with a target pending — which typically
// ends the run within a few levels of its discovery — entry demands
// both signals (large AND exploding) instead of either, so a search
// about to terminate does not pay for a scan it will not reuse.
func hybridDecide(bu bool, nf, mf, unexplored, prevNf, n, alpha, beta, goalBound int64, goalTarget bool) bool {
	if !bu {
		if mf <= unexplored/alpha || nf <= prevNf {
			return false
		}
		if goalBound == 1 {
			return false
		}
		if goalTarget {
			return nf >= n/beta && nf >= 2*prevNf
		}
		return nf >= n/beta || nf >= 2*prevNf
	}
	return nf >= n/beta
}

// hybridAdvance is the plain Engine's barrier-time direction step,
// called by the drivers right after swap: count the just-promoted
// frontier exactly (lane sums for a bottom-up level, a dedup walk for
// a top-down one), update the edge budget, decide the next level's
// direction, and convert the frontier representation if the direction
// changed. Runs single-threaded between level barriers on the driver
// goroutine, inside closeLevel's recovery barrier: a panic here (a
// chaos hook at ChaosDirectionFlip, say) poisons the run. No-op
// without Options.Hybrid; skipped after an abort (the queues and
// bitmap are then legitimately inconsistent, and the next resetHybrid
// re-primes everything).
func (st *state) hybridAdvance() {
	hy := st.hy
	if hy == nil || st.aborted() || st.ctl.canceled() {
		return
	}
	wasBU := hy.bottomUp
	var nf, mf int64
	if wasBU {
		st.counters[0].BottomUpLevels++
		hy.unvisValid = true
		for i := range hy.lanes {
			nf += hy.lanes[i].nf
			mf += hy.lanes[i].mf
		}
	} else {
		st.counters[0].TopDownLevels++
		if st.single {
			nf, mf = hy.countFrontierSingle(st)
		} else {
			nf, mf = hy.dedupFrontier(st)
		}
	}
	hy.unexplored -= mf
	if hy.unexplored < 0 {
		hy.unexplored = 0
	}
	var goalBound int64
	if d := st.goal.MaxDepth; d > 0 {
		// hybridAdvance runs after the barrier's level bump, so st.level
		// is the level the decision is for; <= 0 means the depth goal
		// fires at the loop top before another level runs.
		goalBound = int64(d - st.level)
	}
	bu := hybridDecide(wasBU, nf, mf, hy.unexplored, hy.prevNf,
		int64(st.g.NumVertices()), hy.alpha, hy.beta,
		goalBound, st.goal.Target != 0)
	hy.prevNf = nf
	st.chaosAt(ChaosDirectionFlip, 0, int64(st.level))
	if ctl, ok := st.chaos.(ChaosDirectionController); ok {
		bu = ctl.DirectionChoice(st.level, bu)
	}
	switch {
	case !wasBU && bu:
		// Top-down → bottom-up: dedupFrontier already built the bitmap
		// in nextBits (the single-worker counting path deferred it to
		// now); consume the queues and promote it.
		if st.single {
			hy.buildFrontierBits(st)
		}
		st.consumeFrontierQueues()
		hy.curBits, hy.nextBits = hy.nextBits, hy.curBits
		hy.unvisValid = false
	case !wasBU && !bu:
		if !st.single {
			hy.clearFrontierBits(st)
		}
	case wasBU && bu:
		// The level's discoveries become the current frontier; the old
		// current array becomes scratch (buLevel clears it per range).
		hy.curBits, hy.nextBits = hy.nextBits, hy.curBits
	default: // bottom-up → top-down
		st.exitBottomUp()
	}
	hy.bottomUp = bu
	if bu {
		hy.curCount = nf
	} else {
		hy.curCount = 0
	}
}

// wrapHybrid interposes the direction switch on a family's binding:
// bottom-up levels run the bitmap kernel and skip the family's
// dispatch setup (whose queue-derived state would be meaningless — and
// BFS_EL's setup reads queue contents), top-down levels run the family
// untouched. The direction flag is written by the driver between
// barriers and read by workers after them, so plain accesses are
// ordered. Built once per engine; the closures allocate nothing per
// run.
func wrapHybrid(st *state, b binding) binding {
	innerSetup, innerPerLevel := b.setup, b.perLevel
	b.setup = func() {
		if st.hy.bottomUp {
			return
		}
		if innerSetup != nil {
			innerSetup()
		}
	}
	b.perLevel = func(id int) {
		if st.hy.bottomUp {
			st.buLevel(id)
			return
		}
		innerPerLevel(id)
	}
	return b
}

// shardedHybrid is the engine-level half of direction optimization
// under a ShardedEngine: the global frontier bitmap every shard's
// bottom-up scan reads (in-neighbors live in other shards' frontiers),
// and the global decision variables. Per-shard discovery bitmaps stay
// on each shard's hybridState; the single-threaded barrier step merges
// them here.
type shardedHybrid struct {
	curBits    []uint64
	bottomUp   bool
	unexplored int64
	prevNf     int64
	alpha      int64
	beta       int64
}

// mergeShardFrontiers rebuilds the global frontier bitmap from every
// shard's discovery bitmap: clear, then OR each shard's words over its
// owned range. Adjacent shards can share a boundary word; the merge is
// single-threaded at the barrier, and each shard's array holds set
// bits only for vertices it owns, so the ORs compose. O(n/64) per
// switch-or-bottom-up level.
func (e *ShardedEngine) mergeShardFrontiers() {
	global := e.hy.curBits
	for i := range global {
		global[i] = 0
	}
	for s, se := range e.shards {
		lo, hi := e.sg.Range(s)
		if lo >= hi {
			continue
		}
		next := se.st.hy.nextBits
		for w, end := int(lo)>>6, (int(hi)+63)>>6; w < end; w++ {
			global[w] |= next[w]
		}
	}
}

// hybridAdvance is the sharded barrier-time direction step, the
// ShardedEngine twin of state.hybridAdvance: per-shard exact counts
// roll up into one global decision, every shard then converts its
// frontier representation together, and each shard's curCount feeds
// volume(). Bottom-up levels release every shard regardless of local
// frontier (runLoop): an empty owned frontier still has unvisited
// vertices whose in-neighbors sit in other shards' global bits.
func (e *ShardedEngine) hybridAdvance() {
	hy := e.hy
	if hy == nil || e.ctl.canceled() || e.ctl.aborted() {
		return
	}
	st0 := e.shards[0].st
	wasBU := hy.bottomUp
	var nf, mf int64
	for _, se := range e.shards {
		sh := se.st.hy
		var snf, smf int64
		if wasBU {
			sh.unvisValid = true
			for i := range sh.lanes {
				snf += sh.lanes[i].nf
				smf += sh.lanes[i].mf
			}
		} else {
			snf, smf = sh.dedupFrontier(se.st)
		}
		sh.curCount = snf
		nf += snf
		mf += smf
	}
	if wasBU {
		st0.counters[0].BottomUpLevels++
	} else {
		st0.counters[0].TopDownLevels++
	}
	hy.unexplored -= mf
	if hy.unexplored < 0 {
		hy.unexplored = 0
	}
	var goalBound int64
	if d := e.goal.MaxDepth; d > 0 {
		goalBound = int64(d - st0.level)
	}
	bu := hybridDecide(wasBU, nf, mf, hy.unexplored, hy.prevNf,
		int64(e.sg.Full.NumVertices()), hy.alpha, hy.beta,
		goalBound, e.goal.Target != 0)
	hy.prevNf = nf
	st0.chaosAt(ChaosDirectionFlip, 0, int64(st0.level))
	if ctl, ok := st0.chaos.(ChaosDirectionController); ok {
		bu = ctl.DirectionChoice(st0.level, bu)
	}
	switch {
	case !wasBU && bu:
		for _, se := range e.shards {
			se.st.consumeFrontierQueues()
			se.st.hy.unvisValid = false
		}
		e.mergeShardFrontiers()
	case !wasBU && !bu:
		for _, se := range e.shards {
			se.st.hy.clearFrontierBits(se.st)
		}
	case wasBU && bu:
		e.mergeShardFrontiers()
	default:
		for _, se := range e.shards {
			se.st.exitBottomUp()
		}
	}
	hy.bottomUp = bu
	for _, se := range e.shards {
		se.st.hy.bottomUp = bu
		if !bu {
			se.st.hy.curCount = 0
		}
	}
}
