package core

// Regression tests for the steal-path fixes, driven through the chaos
// hook interface: a seeded, deterministic stale-steal interleaving
// (the descriptor-leak bug), victim-selection uniformity, and the
// level-end unconsumed-slot audit.

import (
	"sync/atomic"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// hookFunc adapts a closure to ChaosHook so white-box tests can
// choreograph one exact interleaving.
type hookFunc struct {
	f func(point ChaosPoint, worker int, value int64)
}

func (h *hookFunc) At(point ChaosPoint, worker int, value int64) {
	if h.f != nil {
		h.f(point, worker, value)
	}
}

// TestForcedStaleStealEmptiesDescriptor provokes, deterministically,
// the interleaving behind the descriptor-leak bug: a thief validates a
// victim's (q, f, r), and before it publishes the split the victim
// drains past the midpoint. The steal must come back stale AND the
// thief's own descriptor must be left empty — before the fix it kept
// advertising the spent [mid, r), which other thieves could
// chain-steal as dead work.
func TestForcedStaleStealEmptiesDescriptor(t *testing.T) {
	g, err := gen.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	h := &hookFunc{}
	st := newState(g, 0, Options{Workers: 2, Seed: 1, Chaos: h}.withDefaults())
	// Hand the victim a five-entry segment in queue 0 (vertices 1..5,
	// slot-encoded as v+1).
	st.in[0].buf = []int32{2, 3, 4, 5, 6, emptySlot}
	st.in[0].origR = 5
	ctx := &wsContext{descs: make([]segDesc, 2)}
	vd := &ctx.descs[0]
	vd.q, vd.f, vd.r = 0, 0, 5
	me := &ctx.descs[1]
	me.q, me.f, me.r = 1, 0, 0
	w := &wsWorker{
		st: st, ctx: ctx, id: 1,
		c: &st.counters[1].Counters, r: rng.NewXoshiro256(7),
	}
	h.f = func(point ChaosPoint, worker int, mid int64) {
		if point != ChaosStealPublish {
			return
		}
		// The victim races past the midpoint in the thief's
		// validate→publish window, zeroing the slots as it pops them.
		for j := mid; j < st.in[0].origR; j++ {
			atomic.StoreInt32(&st.in[0].buf[j], emptySlot)
		}
	}
	if ok := w.stealLockfree(0, me); ok {
		t.Fatal("steal of a spent segment reported success")
	}
	if w.c.StealStale != 1 {
		t.Fatalf("StealStale = %d, want 1", w.c.StealStale)
	}
	f, r := atomic.LoadInt64(&me.f), atomic.LoadInt64(&me.r)
	if f < r {
		t.Fatalf("stale steal left a live descriptor [%d, %d): other thieves can chain-steal the spent segment", f, r)
	}
}

// TestPickVictimUniformWithinSocket verifies the same-socket branch
// draws every socket-local peer with equal probability. The pre-fix
// code remapped a self-draw to the id's successor, double-weighting
// that worker; a chi-square statistic catches the skew at any id
// position in the socket range.
func TestPickVictimUniformWithinSocket(t *testing.T) {
	g, err := gen.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	const p, draws = 8, 60000
	// Bias 1 forces the same-socket branch on every draw.
	st := newState(g, 0, Options{Workers: p, Sockets: 2, SameSocketBias: 1, Seed: 1}.withDefaults())
	for id := 0; id < p; id++ {
		w := &wsWorker{st: st, id: id, c: &st.counters[id].Counters, r: rng.NewXoshiro256(uint64(100 + id))}
		lo, hi := socketRange(socketOf(id, p, 2), p, 2)
		counts := make(map[int]int)
		for i := 0; i < draws; i++ {
			counts[w.pickVictim()]++
		}
		if counts[id] != 0 {
			t.Fatalf("id %d: picked itself %d times", id, counts[id])
		}
		cells := hi - lo - 1
		expected := float64(draws) / float64(cells)
		var chi2 float64
		for v, c := range counts {
			if v < lo || v >= hi {
				t.Fatalf("id %d: cross-socket victim %d under bias 1", id, v)
			}
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if len(counts) != cells {
			t.Fatalf("id %d: only %d of %d socket peers ever picked: %v", id, len(counts), cells, counts)
		}
		// 99.9th percentile of chi-square with 2 degrees of freedom is
		// ~13.8; the pre-fix double-weighting scores draws/8 = 7500.
		if chi2 > 16 {
			t.Fatalf("id %d: victim distribution skewed, chi2 = %.1f over %v", id, chi2, counts)
		}
	}
}

// TestSameSocketBiasExplicitZero covers the withDefaults fix: an
// explicit 0 must survive (it turns the local-steal preference off),
// only negative means "default", and out-of-range values are clamped.
func TestSameSocketBiasExplicitZero(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 0},
		{0.4, 0.4},
		{1, 1},
		{-1, 0.9},
		{-0.001, 0.9},
		{7, 1},
	}
	for _, c := range cases {
		got := Options{Workers: 4, Sockets: 2, SameSocketBias: c.in}.withDefaults().SameSocketBias
		if got != c.want {
			t.Fatalf("SameSocketBias %g round-tripped to %g, want %g", c.in, got, c.want)
		}
	}
	// An explicit-zero-bias run must still be correct.
	g, err := gen.ChungLu(2048, 16384, 2.2, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	res, err := Run(g, 0, BFSWL, Options{Workers: 8, Sockets: 2, SameSocketBias: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.EqualDistances(res.Dist, want); err != nil {
		t.Fatal(err)
	}
}

// TestDecentralizedNeverStrandsPool is the regression test for the
// pool-strand termination bug the soak harness uncovered: with few
// pools, every one of a worker's c·j·log2(j) random retry draws can
// miss the one pool still holding work, and before the fix the worker
// then exited the level, stranding that pool's queues (wrong, larger
// distances downstream). Pool queues have no owner to fall back on —
// termination must sweep all pools deterministically. 120 seeded runs
// at the adversarial configuration (2 workers, 2 pools) fail with
// high probability on the pre-fix code and are deterministic-clean
// after it.
func TestDecentralizedNeverStrandsPool(t *testing.T) {
	g, err := gen.LayeredRandom(3000, 15000, 60, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	runs := 120
	if testing.Short() {
		runs = 30
	}
	for seed := 0; seed < runs; seed++ {
		rec := &auditRecorder{}
		res, err := Run(g, 0, BFSDL, Options{
			Workers: 2, Pools: 2, SegmentSize: 3,
			Seed:  uint64(seed)*0x9e3779b97f4a7c15 + 1,
			Chaos: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range rec.unconsumed {
			if u != 0 {
				t.Fatalf("seed %d: level %d stranded %d queue slots", seed, rec.levels[i], u)
			}
		}
		if err := graph.EqualDistances(res.Dist, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// countingHook tallies firings per chaos point, race-safely.
type countingHook struct {
	fired [NumChaosPoints]int64
}

func (h *countingHook) At(point ChaosPoint, worker int, value int64) {
	atomic.AddInt64(&h.fired[point], 1)
}

// TestChaosHooksFireAtInstrumentedPoints runs the lockfree variants
// with a counting hook and checks every structurally guaranteed point
// fires: slot zeroing and front advance (any lockfree drain),
// front/pool stores (decentralized fetch), and the phase-2 cursor
// (scale-free stealing dispatch). ChaosStealPublish is interleaving-
// dependent and is covered deterministically above.
func TestChaosHooksFireAtInstrumentedPoints(t *testing.T) {
	g, err := gen.Star(4096)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	h := &countingHook{}
	check := func(algo Algorithm, opt Options) {
		t.Helper()
		opt.Chaos = h
		res, err := Run(g, 0, algo, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.EqualDistances(res.Dist, want); err != nil {
			t.Fatalf("%s under chaos hook: %v", algo, err)
		}
	}
	check(BFSDL, Options{Workers: 4, Pools: 2, Seed: 1})
	check(BFSWL, Options{Workers: 4, Seed: 1})
	check(BFSWSL, Options{Workers: 4, Phase2Stealing: true, Seed: 1})
	for _, point := range []ChaosPoint{ChaosSlotZero, ChaosDrainAdvance, ChaosFrontStore, ChaosPoolStore, ChaosPhase2Advance, ChaosBlockFlush} {
		if atomic.LoadInt64(&h.fired[point]) == 0 {
			t.Errorf("chaos point %s never fired", point)
		}
	}
}

// auditRecorder captures the per-level unconsumed-slot audit.
type auditRecorder struct {
	countingHook
	levels     []int32
	unconsumed []int64
}

func (a *auditRecorder) LevelEnd(level int32, unconsumed int64) {
	a.levels = append(a.levels, level)
	a.unconsumed = append(a.unconsumed, unconsumed)
}

// TestLevelAuditCleanOnLockfreeRuns checks the auditor sees every
// level of a lockfree run and that the zero-on-read discipline leaves
// no slot unconsumed.
func TestLevelAuditCleanOnLockfreeRuns(t *testing.T) {
	g, err := gen.LayeredRandom(2000, 10000, 23, 9, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BFSCL, BFSDL, BFSWL, BFSWSL} {
		rec := &auditRecorder{}
		res, err := Run(g, 0, algo, Options{Workers: 4, Pools: 2, Seed: 2, Chaos: rec})
		if err != nil {
			t.Fatal(err)
		}
		if int32(len(rec.levels)) != res.Levels {
			t.Fatalf("%s: audited %d levels, ran %d", algo, len(rec.levels), res.Levels)
		}
		for i, u := range rec.unconsumed {
			if u != 0 {
				t.Fatalf("%s: level %d left %d slots unconsumed", algo, rec.levels[i], u)
			}
		}
	}
}

// TestAuditLevelDetectsLeftoverSlots hand-builds the failing state the
// auditor exists to catch: an input queue with entries no worker ever
// popped.
func TestAuditLevelDetectsLeftoverSlots(t *testing.T) {
	g, err := gen.Path(8)
	if err != nil {
		t.Fatal(err)
	}
	rec := &auditRecorder{}
	st := newState(g, 0, Options{Workers: 2, Chaos: rec}.withDefaults())
	st.slotAudit = true
	st.in[0].buf = []int32{3, 0, 5, emptySlot} // slot 1 consumed, 0 and 2 skipped
	st.in[0].origR = 3
	st.level = 4
	st.auditLevel()
	if len(rec.unconsumed) != 1 || rec.unconsumed[0] != 2 || rec.levels[0] != 4 {
		t.Fatalf("audit reported %v/%v, want one report of 2 unconsumed at level 4", rec.levels, rec.unconsumed)
	}
	// The locked variants leave slots intact by design: without
	// slotAudit the same state must not be reported.
	rec2 := &auditRecorder{}
	st2 := newState(g, 0, Options{Workers: 2, Chaos: rec2}.withDefaults())
	st2.in[0].buf = []int32{3, 0, 5, emptySlot}
	st2.in[0].origR = 3
	st2.auditLevel()
	if len(rec2.unconsumed) != 0 {
		t.Fatalf("audit ran without slotAudit: %v", rec2.unconsumed)
	}
}
