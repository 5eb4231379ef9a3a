package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// testGraphs returns a labeled set of graphs covering the structural
// extremes the algorithms must survive: deep paths, hub hotspots,
// dense duplicate storms, scale-free skew, meshes, and random graphs.
func testGraphs(t testing.TB) map[string]*graph.CSR {
	t.Helper()
	must := func(g *graph.CSR, err error) *graph.CSR {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return map[string]*graph.CSR{
		"single":    must(graph.FromEdges(1, nil, graph.BuildOptions{})),
		"two":       must(graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}}, graph.BuildOptions{})),
		"path":      must(gen.Path(257)),
		"star":      must(gen.Star(300)),
		"cycle":     must(gen.Cycle(100)),
		"tree":      must(gen.BinaryTree(255)),
		"complete":  must(gen.Complete(40)),
		"grid":      must(gen.Grid2D(17, 19, false)),
		"rmat":      must(gen.Graph500RMAT(2048, 16384, 42, gen.Options{})),
		"chunglu":   must(gen.ChungLu(2048, 16384, 2.2, 7, gen.Options{})),
		"layered":   must(gen.LayeredRandom(2000, 12000, 23, 9, gen.Options{})),
		"er":        must(gen.ErdosRenyi(1500, 6000, 3, gen.Options{})),
		"disjoint":  must(graph.FromEdges(100, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, graph.BuildOptions{})),
		"selfloops": must(graph.FromEdges(50, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2}}, graph.BuildOptions{})),
	}
}

var parallelAlgos = []Algorithm{BFSC, BFSCL, BFSDL, BFSW, BFSWL, BFSWS, BFSWSL, BFSEL}

// checkRun executes algo and verifies its distances against the serial
// oracle plus the structural validator, and its bookkeeping invariants.
func checkRun(t *testing.T, g *graph.CSR, src int32, algo Algorithm, opt Options) *Result {
	t.Helper()
	res, err := Run(g, src, algo, opt)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	want := graph.ReferenceBFS(g, src)
	if err := graph.EqualDistances(res.Dist, want); err != nil {
		t.Fatalf("%s (workers=%d): wrong distances: %v", algo, opt.Workers, err)
	}
	if err := graph.ValidateDistances(g, src, res.Dist); err != nil {
		t.Fatalf("%s: structural validation: %v", algo, err)
	}
	if res.Levels != graph.Eccentricity(want)+1 {
		t.Fatalf("%s: Levels=%d, want %d", algo, res.Levels, graph.Eccentricity(want)+1)
	}
	wantReached, wantEdges := graph.ReachedCount(g, want)
	if res.Reached != wantReached || res.EdgesTraversed != wantEdges {
		t.Fatalf("%s: reached=%d edges=%d, want %d/%d", algo, res.Reached, res.EdgesTraversed, wantReached, wantEdges)
	}
	if res.Pops < res.Reached {
		t.Fatalf("%s: pops %d < reached %d (missed work)", algo, res.Pops, res.Reached)
	}
	if res.Duplicates() < 0 {
		t.Fatalf("%s: negative duplicates", algo)
	}
	return res
}

func TestSerialMatchesOracleEverywhere(t *testing.T) {
	for name, g := range testGraphs(t) {
		res, err := Run(g, 0, Serial, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, 0)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Duplicates() != 0 {
			t.Fatalf("%s: serial BFS reported %d duplicates", name, res.Duplicates())
		}
	}
}

func TestAllAlgorithmsAllGraphs(t *testing.T) {
	graphs := testGraphs(t)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, algo := range parallelAlgos {
			algo, workers := algo, workers
			t.Run(fmt.Sprintf("%s/p%d", algo, workers), func(t *testing.T) {
				t.Parallel()
				for name, g := range graphs {
					opt := Options{Workers: workers, Seed: 1}
					res := checkRun(t, g, 0, algo, opt)
					if res.Workers != workers {
						t.Fatalf("%s: Workers=%d, want %d", name, res.Workers, workers)
					}
				}
			})
		}
	}
}

func TestPersistentWorkersMode(t *testing.T) {
	graphs := testGraphs(t)
	for _, algo := range parallelAlgos {
		for name, g := range graphs {
			res, err := Run(g, 0, algo, Options{Workers: 4, Seed: 2, PersistentWorkers: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, name, err)
			}
			if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, 0)); err != nil {
				t.Fatalf("%s/%s: %v", algo, name, err)
			}
		}
	}
}

func TestPersistentWorkersDeepGraph(t *testing.T) {
	// Many levels: the mode exists exactly for this shape.
	g, err := gen.Path(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{BFSCL, BFSWSL, BFSEL} {
		res, err := Run(g, 0, algo, Options{Workers: 8, PersistentWorkers: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Levels != 2000 {
			t.Fatalf("%s: levels %d", algo, res.Levels)
		}
	}
}

func TestRepeatedRunsStayCorrect(t *testing.T) {
	// Races make scheduling different every run; hammer a scale-free
	// graph (maximum contention) repeatedly per algorithm.
	g, err := gen.ChungLu(4096, 32768, 2.1, 21, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	for _, algo := range parallelAlgos {
		for rep := 0; rep < 10; rep++ {
			res, err := Run(g, 0, algo, Options{Workers: 8, Seed: uint64(rep)})
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.EqualDistances(res.Dist, want); err != nil {
				t.Fatalf("%s rep %d: %v", algo, rep, err)
			}
		}
	}
}

func TestDifferentSources(t *testing.T) {
	g, err := gen.LayeredRandom(1200, 7000, 15, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int32{0, 1, 599, 1199} {
		for _, algo := range parallelAlgos {
			checkRun(t, g, src, algo, Options{Workers: 4, Seed: 3})
		}
	}
}

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
	if o.MaxStealFactor != 2 || o.Pools != 1 || o.Sockets != 1 {
		t.Fatalf("defaults wrong: %+v", o)
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
	if v := maxSteal(4, 1); v != 1 {
		t.Fatalf("maxSteal(4,1)=%d", v)
	}
	if v := maxSteal(4, 2); v != 8 {
		t.Fatalf("maxSteal(4,2)=%d", v) // 4*2*log2(2)=8
	}
	if v := maxSteal(4, 8); v != 96 {
		t.Fatalf("maxSteal(4,8)=%d", v) // 4*8*3=96
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

func TestDecentralizedPoolSweep(t *testing.T) {
	g, err := gen.LayeredRandom(3000, 18000, 12, 8, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pools := range []int{1, 2, 3, 8, 100} {
		checkRun(t, g, 0, BFSDL, Options{Workers: 8, Pools: pools, Seed: 4})
	}
}

func TestSegmentSizeSweep(t *testing.T) {
	g, err := gen.ErdosRenyi(2000, 10000, 2, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 7, 64, 100000} {
		for _, algo := range []Algorithm{BFSC, BFSCL} {
			checkRun(t, g, 0, algo, Options{Workers: 4, SegmentSize: s, Seed: 11})
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

// Property: any algorithm, any random graph, any source, any worker
// count in [1,8] produces exactly the oracle distances, with and
// without the direction-optimizing Hybrid mode.
func TestPropertyAllAlgorithmsCorrect(t *testing.T) {
	f := func(seed uint64) bool {
		n := int32(2 + seed%300)
		m := int64(seed % 2000)
		g, err := gen.Graph500RMAT(n, m, seed, gen.Options{})
		if err != nil {
			return false
		}
		src := int32(seed % uint64(n))
		want := graph.ReferenceBFS(g, src)
		workers := 1 + int(seed%8)
		algo := parallelAlgos[seed%uint64(len(parallelAlgos))]
		for _, hybrid := range []bool{false, true} {
			res, err := Run(g, src, algo, Options{Workers: workers, Seed: seed, Hybrid: hybrid})
			if err != nil || graph.EqualDistances(res.Dist, want) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestManyWorkersFewVertices(t *testing.T) {
	// More workers than vertices: most workers have empty queues and
	// must terminate cleanly.
	g, err := gen.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range parallelAlgos {
		checkRun(t, g, 0, algo, Options{Workers: 16, Seed: 1})
	}
}

func TestUnreachedVerticesStayUnreached(t *testing.T) {
	g, err := graph.FromEdges(10, []graph.Edge{{Src: 0, Dst: 1}, {Src: 5, Dst: 6}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range parallelAlgos {
		res := checkRun(t, g, 0, algo, Options{Workers: 4, Seed: 1})
		if res.Reached != 2 {
			t.Fatalf("%s: reached %d, want 2", algo, res.Reached)
		}
		for v := int32(2); v < 10; v++ {
			if res.Dist[v] != graph.Unreached {
				t.Fatalf("%s: vertex %d reached erroneously", algo, v)
			}
		}
	}
}
