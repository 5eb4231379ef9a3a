package core

import (
	"sync"
	"sync/atomic"

	"optibfs/internal/rng"
	"optibfs/internal/stats"
)

// bindCentralized wires BFS_C (§IV-A1) onto pooled state: all p
// workers fetch segments from the centralized queue pool by advancing
// the global <q, f> indices under one global lock. Exploration itself
// is lock-free because dispatched segments are disjoint.
func bindCentralized(st *state) binding {
	p := st.opt.Workers

	var mu sync.Mutex
	var gq int // global queue index, protected by mu

	perLevel := func(id int) {
		c := &st.counters[id]
		out := st.blk[id]
		for {
			if st.aborted() {
				break
			}
			// Fetch the next available segment under the global lock.
			mu.Lock()
			c.LockAcquisitions++
			for gq < p && atomic.LoadInt64(&st.in[gq].front) >= st.in[gq].origR {
				gq++
				c.FetchRetries++
			}
			if gq >= p {
				mu.Unlock()
				break
			}
			k := gq
			q := &st.in[k]
			f := atomic.LoadInt64(&q.front)
			end := f + st.segmentSize(q.origR-f)
			if end > q.origR {
				end = q.origR
			}
			atomic.StoreInt64(&q.front, end)
			mu.Unlock()
			c.Fetches++
			st.beat(id)
			st.traceEvent(id, EventFetch, -1, end-f)

			for j := f; j < end; j++ {
				if j+1 < end {
					// Warm the next vertex's CSR offsets while this
					// one's adjacency is scanned (dispatched segments
					// are disjoint, so the peek is a plain read).
					st.prefetchVertex(q.buf[j+1] - 1)
				}
				v := q.buf[j] - 1
				if !st.claimAllows(k, v) {
					c.VerticesPopped++
					continue
				}
				out = st.exploreVertex(id, v, out)
			}
			st.maybeYield()
		}
		st.blk[id] = st.endLevelOut(id, out)
	}

	return binding{setup: func() { gq = 0 }, perLevel: perLevel}
}

// pool is one centralized queue pool of BFS_DL (§IV-A3): a contiguous
// range [lo, hi) of the input queues plus the pool's shared <q> pointer.
// The per-queue front pointers live in sharedQueue. Both q and the
// fronts are updated with plain atomic stores — no locks, no RMW — so
// they can move backwards under races; the zero-on-read rule below
// keeps duplicate exploration bounded and correctness intact.
type pool struct {
	lo, hi int64
	q      int64 // atomic; current queue index within [lo, hi)
	_      [40]byte
}

// bindDecentralized wires BFS_CL (Pools=1) and BFS_DL (Pools=j) onto
// pooled state: lockfree centralized-queue BFS with optimistic
// parallelization. The pools, RNG streams, and closures are built once
// per engine and reused by every run.
func bindDecentralized(st *state) binding {
	// exploreSegmentLockfree zeroes every slot it pops, so the
	// per-level unconsumed-slot audit applies.
	st.slotAudit = true
	opt := st.opt
	p := opt.Workers
	j := opt.Pools
	pools := make([]pool, j)
	per := int64((p + j - 1) / j)
	for pi := range pools {
		pools[pi].lo = int64(pi) * per
		pools[pi].hi = pools[pi].lo + per
		if pools[pi].hi > int64(p) {
			pools[pi].hi = int64(p)
		}
	}
	rngs := make([]*rng.Xoshiro256, p)
	for i := range rngs {
		rngs[i] = rng.NewXoshiro256(opt.Seed ^ rng.Mix64(uint64(i)+1))
	}
	poolRetries := maxSteal(j)

	// fetch grabs one segment from pl without locks or atomic RMW:
	// load the pool's q, walk forward to the first queue whose front is
	// before its rear, then store the advanced front and the new q.
	// Concurrent fetches can both observe the same front (overlapping
	// segments) or store an older, smaller front/q (backward motion,
	// Figure 1); both only cause duplicate exploration.
	fetch := func(id int, pl *pool, c *stats.Counters) (qi, f, end int64, ok bool) {
		k := atomic.LoadInt64(&pl.q)
		if k < pl.lo || k >= pl.hi {
			k = pl.lo
		}
		for {
			if k >= pl.hi {
				return 0, 0, 0, false
			}
			q := &st.in[k]
			f = atomic.LoadInt64(&q.front)
			if f < q.origR {
				end = f + st.segmentSize(q.origR-f)
				if end > q.origR {
					end = q.origR
				}
				st.chaosAt(ChaosPoolStore, id, k)
				atomic.StoreInt64(&pl.q, k)
				st.chaosAt(ChaosFrontStore, id, end)
				atomic.StoreInt64(&q.front, end)
				c.Fetches++
				return k, f, end, true
			}
			k++
			c.FetchRetries++
		}
	}

	perLevel := func(id int) {
		c := &st.counters[id].Counters
		r := rngs[id]
		out := st.blk[id]
		// Each worker starts at a random pool (same-socket biased when
		// a NUMA topology is simulated).
		myPool := st.pickPool(r, id, j)
		pl := &pools[myPool]
		for {
			if st.aborted() {
				break
			}
			qi, f, end, ok := fetch(id, pl, c)
			if !ok {
				// Pool empty: retry random pools up to c·j·log2(j)
				// times (balls-and-bins bound, §IV-A3).
				found := false
				for t := 0; t < poolRetries && !found; t++ {
					cand := st.pickPool(r, id, j)
					pl2 := &pools[cand]
					qi, f, end, ok = fetch(id, pl2, c)
					if ok {
						pl = pl2
						found = true
					}
				}
				// The random bound governs load balance, not
				// termination: pool queues have no owner, so if every
				// draw above misses the one pool still holding work
				// (likely for small j), exiting now would strand its
				// queues for the whole level. Sweep all pools
				// deterministically before declaring the level drained.
				for cand := 0; cand < j && !found; cand++ {
					pl2 := &pools[cand]
					qi, f, end, ok = fetch(id, pl2, c)
					if ok {
						pl = pl2
						found = true
					}
				}
				if !found {
					break
				}
			}
			st.beat(id)
			st.traceEvent(id, EventFetch, -1, end-f)
			out = st.exploreSegmentLockfree(id, int(qi), f, end, out)
			st.maybeYield()
		}
		st.blk[id] = st.endLevelOut(id, out)
	}

	setup := func() {
		for pi := range pools {
			atomic.StoreInt64(&pools[pi].q, pools[pi].lo)
		}
	}
	return binding{
		setup:    setup,
		perLevel: perLevel,
		post:     func(res *Result) { res.Pools = j },
		rngs:     rngs,
		rngSalt:  1,
	}
}

// exploreSegmentLockfree walks queue qi's slots [f, end), zeroing each
// slot as it is read (the paper's duplicate-suppression trick) and
// stopping early at a 0 slot, which means either another worker already
// explored from there or the queue's sentinel was reached. Stopping
// only at 0 — never by consulting a (possibly stale) rear pointer —
// guarantees no queue entry is skipped.
func (st *state) exploreSegmentLockfree(id, qi int, f, end int64, out []int32) []int32 {
	buf := st.in[qi].buf
	for j := f; j < end; j++ {
		slot := atomic.LoadInt32(&buf[j])
		if slot == emptySlot {
			break
		}
		st.chaosAt(ChaosSlotZero, id, j)
		atomic.StoreInt32(&buf[j], emptySlot)
		// Peek the next slot (atomic: overlapping segments zero slots
		// concurrently) and warm its vertex's CSR offsets under the
		// current vertex's adjacency scan.
		if j+1 < end {
			if nxt := atomic.LoadInt32(&buf[j+1]); nxt != emptySlot {
				st.prefetchVertex(nxt - 1)
			}
		}
		v := slot - 1
		if !st.claimAllows(qi, v) {
			st.counters[id].VerticesPopped++
			continue
		}
		out = st.exploreVertex(id, v, out)
	}
	return out
}

// pickPool selects a pool index, preferring the worker's simulated
// socket group with probability SameSocketBias when Sockets > 1.
func (st *state) pickPool(r *rng.Xoshiro256, id, j int) int {
	if st.opt.Sockets > 1 && r.Float64() < st.opt.SameSocketBias {
		lo, hi := socketRange(socketOf(id, st.opt.Workers, st.opt.Sockets), j, st.opt.Sockets)
		if hi > lo {
			return lo + r.Intn(hi-lo)
		}
	}
	return r.Intn(j)
}

// socketOf maps worker id to its simulated socket.
func socketOf(id, p, sockets int) int { return id * sockets / p }

// socketRange returns the contiguous range [lo, hi) of k items
// (pools or workers) assigned to socket s of `sockets`.
func socketRange(s, k, sockets int) (lo, hi int) {
	lo = s * k / sockets
	hi = (s + 1) * k / sockets
	return lo, hi
}
