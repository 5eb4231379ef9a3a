package core

import (
	"testing"

	"optibfs/internal/gen"
)

func TestRunInputValidation(t *testing.T) {
	g, _ := gen.Path(10)
	if _, err := Run(nil, 0, BFSCL, Options{}); err == nil {
		t.Fatal("accepted nil graph")
	}
	if _, err := Run(g, -1, BFSCL, Options{}); err == nil {
		t.Fatal("accepted negative source")
	}
	if _, err := Run(g, 10, BFSCL, Options{}); err == nil {
		t.Fatal("accepted out-of-range source")
	}
	if _, err := Run(g, 0, Algorithm("nope"), Options{}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers <= 0 {
		t.Fatalf("Workers default %d", o.Workers)
	}
	if o.Pools != 1 || o.Sockets != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if hybridAlpha != 15 || hybridBeta != 18 {
		t.Fatalf("hybrid switch constants %d/%d, want Beamer's 15/18", hybridAlpha, hybridBeta)
	}
	if o.SameSocketBias != 0 {
		t.Fatalf("zero-value bias changed to %g; an explicit 0 must stay 0", o.SameSocketBias)
	}
	if b := (Options{SameSocketBias: -1}).withDefaults().SameSocketBias; b != 0.9 {
		t.Fatalf("negative bias should select the default 0.9, got %g", b)
	}
	o2 := Options{Workers: 4, Pools: 100, Sockets: 99}.withDefaults()
	if o2.Pools != 4 || o2.Sockets != 4 {
		t.Fatalf("clamping wrong: %+v", o2)
	}
}

func TestLockfreePredicate(t *testing.T) {
	for _, a := range []Algorithm{BFSCL, BFSDL, BFSWL, BFSWSL, BFSEL} {
		if !a.Lockfree() {
			t.Fatalf("%s should be lockfree", a)
		}
	}
	for _, a := range []Algorithm{Serial, BFSC, BFSW, BFSWS} {
		if a.Lockfree() {
			t.Fatalf("%s should not be lockfree", a)
		}
	}
}

func TestMaxStealBound(t *testing.T) {
	if maxStealFactor != 2 {
		t.Fatalf("maxStealFactor=%d, want the paper's 2", maxStealFactor)
	}
	if v := maxSteal(1); v != 1 {
		t.Fatalf("maxSteal(1)=%d", v)
	}
	if v := maxSteal(2); v != 4 {
		t.Fatalf("maxSteal(2)=%d", v) // 2*2*log2(2)=4
	}
	if v := maxSteal(8); v != 48 {
		t.Fatalf("maxSteal(8)=%d", v) // 2*8*3=48
	}
}

func TestLockfreeVariantsUseNoLocks(t *testing.T) {
	g, err := gen.ChungLu(2048, 16384, 2.2, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BFSCL, BFSDL, BFSWL, BFSWSL, BFSEL} {
		res := checkRun(t, g, 0, algo, Options{Workers: 8, Seed: 2})
		if res.Counters.LockAcquisitions != 0 || res.Counters.LockTryFails != 0 {
			t.Fatalf("%s reported lock usage: %+v", algo, res.Counters)
		}
		if res.Counters.StealVictimLocked != 0 {
			t.Fatalf("%s reported victim-locked failures", algo)
		}
	}
}

func TestLockedVariantsUseLocks(t *testing.T) {
	g, err := gen.ChungLu(2048, 16384, 2.2, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BFSC, BFSW, BFSWS} {
		res := checkRun(t, g, 0, algo, Options{Workers: 4, Seed: 2})
		if res.Counters.LockAcquisitions == 0 {
			t.Fatalf("%s reported no lock acquisitions", algo)
		}
		if res.Counters.StealStale != 0 || res.Counters.StealInvalid != 0 {
			t.Fatalf("%s reported stale/invalid segments, impossible with locks: %+v", algo, res.Counters)
		}
	}
}

func TestWorkStealingActuallySteals(t *testing.T) {
	// The source's whole frontier starts in worker 0's queue, so other
	// workers must steal to do anything.
	g, err := gen.ErdosRenyi(8192, 65536, 4, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := checkRun(t, g, 0, BFSWL, Options{Workers: 8, Seed: 6})
	if res.Counters.StealAttempts == 0 {
		t.Fatal("no steal attempts recorded")
	}
	if res.Counters.StealSuccess == 0 {
		t.Fatal("no successful steals on a graph with large frontiers")
	}
	if got := res.Counters.StealSuccess + res.Counters.FailedSteals(); got != res.Counters.StealAttempts {
		t.Fatalf("steal taxonomy does not add up: %d success + %d failed != %d attempts",
			res.Counters.StealSuccess, res.Counters.FailedSteals(), res.Counters.StealAttempts)
	}
}

func TestScaleFreeDefersHotVertices(t *testing.T) {
	g, err := gen.Star(5000) // hub degree 4999
	if err != nil {
		t.Fatal(err)
	}
	res := checkRun(t, g, 1, BFSWSL, Options{Workers: 4, Seed: 1, HighDegreeThreshold: 100})
	if res.Counters.HotVertices == 0 {
		t.Fatal("star hub was not deferred to phase 2")
	}
	if res.Counters.HotChunks == 0 {
		t.Fatal("no phase-2 chunks processed")
	}
	// A low-threshold run on a near-regular graph must defer nothing.
	reg, err := gen.Grid2D(40, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	res2 := checkRun(t, reg, 0, BFSWSL, Options{Workers: 4, Seed: 1, HighDegreeThreshold: 100})
	if res2.Counters.HotVertices != 0 {
		t.Fatalf("grid deferred %d hot vertices at threshold 100", res2.Counters.HotVertices)
	}
}

func TestPhase2Stealing(t *testing.T) {
	g, err := gen.ChungLu(4096, 65536, 2.0, 13, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BFSWS, BFSWSL} {
		res := checkRun(t, g, 0, algo, Options{Workers: 4, Seed: 9, Phase2Stealing: true})
		if res.Counters.HotVertices > 0 && res.Counters.HotChunks == 0 {
			t.Fatalf("%s: hot vertices but no chunks with Phase2Stealing", algo)
		}
	}
}

func TestParentClaimReducesDuplicates(t *testing.T) {
	// Dense low-diameter graph = maximal duplicate pressure (§IV-D says
	// the claim filter helps exactly there). The filter must at least
	// preserve correctness; usually it also reduces duplicate pops.
	g, err := gen.Complete(400)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BFSCL, BFSWL} {
		plain := checkRun(t, g, 0, algo, Options{Workers: 8, Seed: 5})
		claimed := checkRun(t, g, 0, algo, Options{Workers: 8, Seed: 5, ParentClaim: true})
		if claimed.Duplicates() > plain.Duplicates()+int64(g.NumVertices()) {
			t.Fatalf("%s: ParentClaim increased duplicates a lot: %d -> %d",
				algo, plain.Duplicates(), claimed.Duplicates())
		}
	}
}

func TestSimulatedNUMA(t *testing.T) {
	g, err := gen.ChungLu(4096, 32768, 2.2, 17, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := checkRun(t, g, 0, BFSWL, Options{Workers: 8, Sockets: 2, SameSocketBias: 0.9, Seed: 1})
	total := res.Counters.StealSameSocket + res.Counters.StealCrossSocket
	if total == 0 {
		t.Skip("no steal attempts this run")
	}
	if res.Counters.StealSameSocket <= res.Counters.StealCrossSocket {
		t.Fatalf("socket bias ineffective: same=%d cross=%d",
			res.Counters.StealSameSocket, res.Counters.StealCrossSocket)
	}
	checkRun(t, g, 0, BFSDL, Options{Workers: 8, Pools: 4, Sockets: 2, Seed: 1})
}

func TestPopsAccounting(t *testing.T) {
	// On a path every level holds one vertex. Dispatch that never hands
	// one queue slot to two workers pops every vertex exactly once: the
	// locked families, and work stealing, which cannot split a one-entry
	// segment. The optimistic fetches of BFS_CL/DL/EL can: two workers
	// may read the same front or cursor before either store lands. The
	// paper permits those duplicates, so for them the test asserts what
	// the protocol does bound.
	g, err := gen.Path(500)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	for _, algo := range parallelAlgos {
		res := checkRun(t, g, 0, algo, Options{Workers: p, Seed: 2})
		c := res.Counters
		switch algo {
		case BFSCL, BFSDL, BFSEL:
			// A worker's own epoch stamp stops it from enqueueing a
			// vertex twice, so a level's frontier holds at most p copies.
			if c.Discovered > p*(res.Reached-1) {
				t.Fatalf("%s: %d discoveries of %d vertices exceed %d per vertex", algo, c.Discovered, res.Reached-1, p)
			}
			if algo == BFSEL {
				// The path's levels have at most 2p edges, so every edge
				// segment is one edge long and one fetch pops at most
				// one entry. (A stale cursor store can hand a worker a
				// range it already scanned, so no per-worker bound holds.)
				if res.Pops > c.Fetches {
					t.Fatalf("%s: %d pops from %d one-edge fetches", algo, res.Pops, c.Fetches)
				}
				continue
			}
			// Zero-on-read: nothing refills a slot within a level, so
			// each worker pops each enqueued entry (the source plus one
			// per discovery) at most once.
			if entries := c.Discovered + 1; res.Pops > p*entries {
				t.Fatalf("%s: %d pops of %d queue entries exceed %d per entry", algo, res.Pops, entries, p)
			}
		default:
			if res.Duplicates() != 0 {
				t.Fatalf("%s popped duplicates on a path: %d", algo, res.Duplicates())
			}
		}
	}
}

func TestCentralizedFetchCounters(t *testing.T) {
	g, err := gen.ErdosRenyi(4000, 20000, 6, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := checkRun(t, g, 0, BFSCL, Options{Workers: 4, Seed: 7})
	if res.Counters.Fetches == 0 {
		t.Fatal("no fetches recorded")
	}
	if res.Counters.LockAcquisitions != 0 {
		t.Fatal("lockfree centralized used locks")
	}
	resC := checkRun(t, g, 0, BFSC, Options{Workers: 4, Seed: 7})
	if resC.Counters.LockAcquisitions < resC.Counters.Fetches {
		t.Fatalf("BFS_C: %d lock acquisitions < %d fetches",
			resC.Counters.LockAcquisitions, resC.Counters.Fetches)
	}
}
