package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// newState allocates state and primes it for a search from src, for
// the protocol-level tests that drive one state without an engine.
func newState(g *graph.CSR, src int32, opt Options) *state {
	st := allocState(g, opt, newRunCtl("", opt.Workers, 0))
	st.beginRun(src)
	return st
}

func newTestState(t *testing.T, workers int) (*state, *graph.CSR) {
	t.Helper()
	g, err := gen.Grid2D(8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	return newState(g, 0, Options{Workers: workers}.withDefaults()), g
}

func TestStateSeeding(t *testing.T) {
	st, _ := newTestState(t, 4)
	if st.volume() != 1 {
		t.Fatalf("initial volume %d", st.volume())
	}
	if st.in[0].buf[0] != 1 || st.in[0].buf[1] != emptySlot {
		t.Fatalf("source queue %v", st.in[0].buf)
	}
	if st.in[0].origR != 1 {
		t.Fatalf("origR %d", st.in[0].origR)
	}
	for i := 1; i < 4; i++ {
		if st.in[i].origR != 0 || st.in[i].buf[0] != emptySlot {
			t.Fatalf("queue %d not empty: %v", i, st.in[i].buf)
		}
	}
	if st.dist[0] != 0 {
		t.Fatal("source distance not 0")
	}
}

func TestStateSwap(t *testing.T) {
	st, _ := newTestState(t, 2)
	st.blk[0] = st.endLevelOut(0, append(st.blk[0], 5, 6))
	st.blk[1] = st.endLevelOut(1, append(st.blk[1], 9))
	st.swap()
	if st.in[0].origR != 2 || st.in[1].origR != 1 {
		t.Fatalf("origR after swap: %d, %d", st.in[0].origR, st.in[1].origR)
	}
	if st.in[0].buf[2] != emptySlot || st.in[1].buf[1] != emptySlot {
		t.Fatal("sentinel missing after swap")
	}
	if st.volume() != 3 {
		t.Fatalf("volume %d", st.volume())
	}
	if atomic.LoadInt64(&st.in[0].front) != 0 {
		t.Fatal("front not reset")
	}
	for i := range st.out {
		if len(st.out[i].buf) != 0 || atomic.LoadInt64(&st.out[i].tail) != 0 {
			t.Fatal("out queues not recycled empty")
		}
		if len(st.blk[i]) != 0 {
			t.Fatal("discovery blocks not recycled empty")
		}
	}
	if st.counters[0].BlocksFlushed != 1 || st.counters[0].PartialFlushes != 1 {
		t.Fatalf("worker 0 flush counters: %d blocks, %d partial",
			st.counters[0].BlocksFlushed, st.counters[0].PartialFlushes)
	}
}

// TestFlushBlockAtCapacity pins the batched-publication protocol at the
// block boundary: with PublishBlock=2 a third discovery must land in a
// freshly emptied block, with two full-block publications visible in
// the output queue and the tail index covering both.
func TestFlushBlockAtCapacity(t *testing.T) {
	g, err := gen.Grid2D(8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(g, 0, Options{Workers: 2, PublishBlock: 2}.withDefaults())
	out := st.blk[0]
	for _, w := range []int32{3, 5, 7} {
		out = st.scanNeighbors(0, 0, []int32{w}, out)
	}
	if len(out) != 1 || out[0] != 8 {
		t.Fatalf("open block after 3 discoveries: %v, want [8]", out)
	}
	q := &st.out[0]
	if got := atomic.LoadInt64(&q.tail); got != 2 {
		t.Fatalf("published tail %d, want 2 (third discovery unflushed)", got)
	}
	if len(q.buf) != 2 || q.buf[0] != 4 || q.buf[1] != 6 {
		t.Fatalf("published queue %v, want [4 6]", q.buf)
	}
	if st.counters[0].BlocksFlushed != 1 || st.counters[0].PartialFlushes != 0 {
		t.Fatalf("flush counters: %d blocks, %d partial, want 1, 0",
			st.counters[0].BlocksFlushed, st.counters[0].PartialFlushes)
	}
	st.blk[0] = st.endLevelOut(0, out)
	if got := atomic.LoadInt64(&q.tail); got != 3 {
		t.Fatalf("tail after barrier flush %d, want 3", got)
	}
	if st.counters[0].PartialFlushes != 1 {
		t.Fatalf("barrier flush not counted partial: %+v", st.counters[0].Counters)
	}
	st.swap()
	if st.in[0].origR != 3 || st.in[0].buf[3] != emptySlot {
		t.Fatalf("swap promoted %v (origR %d)", st.in[0].buf, st.in[0].origR)
	}
}

func TestDiscoverIsIdempotentPerVertex(t *testing.T) {
	st, _ := newTestState(t, 2)
	out := st.scanNeighbors(0, 0, []int32{7}, nil)
	if len(out) != 1 || out[0] != 8 {
		t.Fatalf("claim output %v", out)
	}
	if st.dist[7] != 1 {
		t.Fatalf("dist[7]=%d", st.dist[7])
	}
	// Second discovery of the same vertex is a no-op.
	out = st.scanNeighbors(0, 0, []int32{7}, out)
	if len(out) != 1 {
		t.Fatalf("re-discovery appended: %v", out)
	}
	if st.counters[0].Discovered != 1 {
		t.Fatalf("Discovered=%d", st.counters[0].Discovered)
	}
}

func TestClaimAllows(t *testing.T) {
	g, err := gen.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(g, 0, Options{Workers: 2, ParentClaim: true}.withDefaults())
	st.scanNeighbors(1, 0, []int32{5}, nil) // worker 1 claims vertex 5
	if !st.claimAllows(1, 5) {
		t.Fatal("claimer denied")
	}
	if st.claimAllows(0, 5) {
		t.Fatal("non-claimer allowed")
	}
	// Without ParentClaim everything is allowed.
	st2 := newState(g, 0, Options{Workers: 2}.withDefaults())
	if !st2.claimAllows(0, 5) || !st2.claimAllows(1, 5) {
		t.Fatal("claim filter active when disabled")
	}
}

func TestSegmentSizeRules(t *testing.T) {
	st, _ := newTestState(t, 4)
	// Fixed size wins.
	st.opt.SegmentSize = 7
	if s := st.segmentSize(1000000); s != 7 {
		t.Fatalf("fixed segment %d", s)
	}
	// Adaptive: remaining/(8p)+1, capped.
	st.opt.SegmentSize = 0
	if s := st.segmentSize(3200); s != 3200/32+1 {
		t.Fatalf("adaptive segment %d", s)
	}
	if s := st.segmentSize(0); s != 1 {
		t.Fatalf("empty segment %d", s)
	}
	if s := st.segmentSize(1 << 30); s != 1024 {
		t.Fatalf("cap segment %d", s)
	}
}

func TestExploreSegmentLockfreeStopsAtZero(t *testing.T) {
	st, _ := newTestState(t, 2)
	// Hand-craft queue 0: vertices 1,2 then an explored hole (0), then 3.
	st.in[0].buf = []int32{2, 3, 0, 4, 0}
	st.in[0].origR = 4
	out := st.exploreSegmentLockfree(0, 0, 0, 4, nil)
	// Exploration must stop at the hole: vertices 1 and 2 explored,
	// vertex 3 untouched.
	if st.dist[3] == graph.Unreached {
		// vertex ids: slot value-1; slots 2->v1, 3->v2. Neighbors of a
		// grid vertex get discovered; just assert the hole stopped us:
		t.Log("neighbor marking fine")
	}
	if st.in[0].buf[3] != 4 {
		t.Fatal("slot beyond the hole was consumed")
	}
	if st.counters[0].VerticesPopped != 2 {
		t.Fatalf("pops=%d want 2", st.counters[0].VerticesPopped)
	}
	if st.in[0].buf[0] != 0 || st.in[0].buf[1] != 0 {
		t.Fatal("explored slots not zeroed")
	}
	_ = out
}

func TestExploreSegmentLockfreeZeroesAndCounts(t *testing.T) {
	st, _ := newTestState(t, 1)
	st.in[0].buf = []int32{5, 6, 7, 0}
	st.in[0].origR = 3
	st.exploreSegmentLockfree(0, 0, 0, 2, nil) // segment shorter than queue
	if st.counters[0].VerticesPopped != 2 {
		t.Fatalf("pops=%d", st.counters[0].VerticesPopped)
	}
	if st.in[0].buf[2] != 7 {
		t.Fatal("segment boundary not respected")
	}
}

func TestSocketMapping(t *testing.T) {
	// 8 workers, 2 sockets: 0-3 on socket 0, 4-7 on socket 1.
	for id := 0; id < 8; id++ {
		want := 0
		if id >= 4 {
			want = 1
		}
		if got := socketOf(id, 8, 2); got != want {
			t.Fatalf("socketOf(%d)=%d want %d", id, got, want)
		}
	}
	lo, hi := socketRange(1, 8, 2)
	if lo != 4 || hi != 8 {
		t.Fatalf("socketRange=%d,%d", lo, hi)
	}
	lo, hi = socketRange(0, 3, 2) // 3 pools over 2 sockets
	if lo != 0 || hi != 1 {
		t.Fatalf("socketRange pools=%d,%d", lo, hi)
	}
}

func TestBarrierReuse(t *testing.T) {
	const n = 8
	b := newBarrier(n)
	var phase int32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			for round := int32(1); round <= 50; round++ {
				b.wait()
				// After the barrier every goroutine must observe a
				// phase >= its round once someone bumps it.
				if round == 1 {
					atomic.CompareAndSwapInt32(&phase, 0, 1)
				}
			}
		}()
	}
	wg.Wait()
	if atomic.LoadInt32(&phase) != 1 {
		t.Fatal("barrier goroutines did not run")
	}
}

func TestBarrierSingleWorker(t *testing.T) {
	b := newBarrier(1)
	for i := 0; i < 10; i++ {
		b.wait() // must never block
	}
}

func TestSegDescPadding(t *testing.T) {
	if sz := unsafe.Sizeof(segDesc{}); sz%64 != 0 {
		t.Fatalf("segDesc size %d not cache-line multiple", sz)
	}
	if sz := unsafe.Sizeof(sharedQueue{}); sz%64 != 0 {
		t.Fatalf("sharedQueue size %d not cache-line multiple", sz)
	}
	if sz := unsafe.Sizeof(pool{}); sz%64 != 0 {
		t.Fatalf("pool size %d not cache-line multiple", sz)
	}
}

func TestPickVictimNeverSelf(t *testing.T) {
	g, err := gen.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, sockets := range []int{1, 2, 4} {
		st := newState(g, 0, Options{Workers: 8, Sockets: sockets}.withDefaults())
		w := &wsWorker{st: st, id: 3, c: &st.counters[3].Counters, r: rng.NewXoshiro256(1)}
		for i := 0; i < 2000; i++ {
			v := w.pickVictim()
			if v == 3 {
				t.Fatalf("sockets=%d: picked self", sockets)
			}
			if v < 0 || v >= 8 {
				t.Fatalf("sockets=%d: victim %d out of range", sockets, v)
			}
		}
	}
}

func TestPickVictimSocketBias(t *testing.T) {
	g, err := gen.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(g, 0, Options{Workers: 8, Sockets: 2, SameSocketBias: 0.9}.withDefaults())
	w := &wsWorker{st: st, id: 0, c: &st.counters[0].Counters, r: rng.NewXoshiro256(1)}
	same := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if socketOf(w.pickVictim(), 8, 2) == 0 {
			same++
		}
	}
	// Unbiased would give ~43% same-socket (3 of 7 victims); with 0.9
	// bias it must be well above 80%.
	if float64(same)/trials < 0.8 {
		t.Fatalf("same-socket fraction %.2f too low for bias 0.9", float64(same)/trials)
	}
}

func TestStealLockfreeRejectsBadDescriptors(t *testing.T) {
	g, err := gen.Path(64)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(g, 0, Options{Workers: 2}.withDefaults())
	ctx := &wsContext{descs: make([]segDesc, 2)}
	w := &wsWorker{st: st, ctx: ctx, id: 0, c: &st.counters[0].Counters, r: rng.NewXoshiro256(1)}
	me := &ctx.descs[0]
	vd := &ctx.descs[1]

	// Victim idle flag.
	atomic.StoreInt32(&vd.idle, 1)
	if w.stealLockfree(1, me) {
		t.Fatal("stole from idle victim")
	}
	if w.c.StealVictimIdle != 1 {
		t.Fatalf("idle counter %d", w.c.StealVictimIdle)
	}
	atomic.StoreInt32(&vd.idle, 0)

	// Invalid: r beyond the queue's original rear.
	vd.q, vd.f, vd.r = 0, 0, 999
	if w.stealLockfree(1, me) {
		t.Fatal("accepted r > origR")
	}
	if w.c.StealInvalid != 1 {
		t.Fatalf("invalid counter %d", w.c.StealInvalid)
	}

	// Invalid: queue id out of range.
	vd.q, vd.f, vd.r = 57, 0, 1
	if w.stealLockfree(1, me) {
		t.Fatal("accepted bad queue id")
	}

	// Empty: f == r.
	vd.q, vd.f, vd.r = 0, 1, 1
	if w.stealLockfree(1, me) {
		t.Fatal("stole empty segment")
	}

	// Too small: one remaining vertex.
	st.in[0].buf = []int32{1, 2, 3, 0}
	st.in[0].origR = 3
	vd.q, vd.f, vd.r = 0, 2, 3
	if w.stealLockfree(1, me) {
		t.Fatal("stole a too-small segment")
	}
	if w.c.StealTooSmall != 1 {
		t.Fatalf("too-small counter %d", w.c.StealTooSmall)
	}

	// Valid steal: thief takes the right half.
	vd.q, vd.f, vd.r = 0, 0, 3
	if !w.stealLockfree(1, me) {
		t.Fatal("valid steal rejected")
	}
	if me.q != 0 || me.f != 1 || me.r != 3 {
		t.Fatalf("thief descriptor (%d,%d,%d)", me.q, me.f, me.r)
	}
	if vd.r != 1 {
		t.Fatalf("victim rear %d, want 1", vd.r)
	}

	// Stale: slot at mid already zeroed.
	st.in[0].buf = []int32{1, 0, 0, 0}
	vd.q, vd.f, vd.r = 0, 0, 3
	if w.stealLockfree(1, me) {
		t.Fatal("stale steal reported success")
	}
	if w.c.StealStale != 1 {
		t.Fatalf("stale counter %d", w.c.StealStale)
	}
}

func TestStealLockedRespectsTryLock(t *testing.T) {
	g, err := gen.Path(64)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(g, 0, Options{Workers: 2}.withDefaults())
	ctx := &wsContext{descs: make([]segDesc, 2)}
	w := &wsWorker{st: st, ctx: ctx, id: 0, locked: true, c: &st.counters[0].Counters, r: rng.NewXoshiro256(1)}
	me := &ctx.descs[0]
	vd := &ctx.descs[1]
	vd.q, vd.f, vd.r = 0, 0, 10
	st.in[0].origR = 10

	vd.mu.Lock()
	if w.stealLocked(1, me) {
		t.Fatal("stole while victim locked")
	}
	if w.c.StealVictimLocked != 1 || w.c.LockTryFails != 1 {
		t.Fatalf("counters: %+v", w.c)
	}
	vd.mu.Unlock()

	if !w.stealLocked(1, me) {
		t.Fatal("valid locked steal rejected")
	}
	if vd.r != 5 || me.f != 5 || me.r != 10 {
		t.Fatalf("locked steal wrong: victim.r=%d me=(%d,%d)", vd.r, me.f, me.r)
	}
}

func TestEdgePartitionedSingleWorkerAndHub(t *testing.T) {
	// A star forces the hub's adjacency to be split across segments.
	g, err := gen.Star(4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		res, err := Run(g, 0, BFSEL, Options{Workers: workers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, 0)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Counters.Fetches == 0 {
			t.Fatal("no edge-range fetches recorded")
		}
	}
}

func TestEdgePartitionedZeroDegreeFrontier(t *testing.T) {
	// Vertices 1 and 2 are discovered but have no out-edges.
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, BFSEL, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 3 {
		t.Fatalf("reached %d", res.Reached)
	}
	if res.Pops < res.Reached {
		t.Fatalf("pops %d < reached %d", res.Pops, res.Reached)
	}
}

func TestLockBatchOption(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 20000, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	var lockCounts []int64
	for _, batch := range []int{1, 16, 256} {
		res, err := Run(g, 0, BFSW, Options{Workers: 4, LockBatch: batch, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, Audit(g, 0, want, Goal{}, res), "batch=%d", batch)
		lockCounts = append(lockCounts, res.Counters.LockAcquisitions)
	}
	// Bigger batches must acquire the lock less often.
	if !(lockCounts[0] > lockCounts[1] && lockCounts[1] > lockCounts[2]) {
		t.Fatalf("lock counts not decreasing with batch size: %v", lockCounts)
	}
}
