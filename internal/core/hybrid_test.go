package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// checkHybridRun holds a hybrid Result to the audit contract, which
// relaxes the queue-shaped bounds once a level went bottom-up, and to
// the per-direction level split.
func checkHybridRun(t *testing.T, g *graph.CSR, src int32, res *Result) {
	t.Helper()
	requireClean(t, Audit(g, src, nil, Goal{}, res), "hybrid run")
	if got := res.Counters.TopDownLevels + res.Counters.BottomUpLevels; got != int64(res.Levels) {
		t.Fatalf("TopDownLevels+BottomUpLevels = %d, want Levels = %d", got, res.Levels)
	}
}

// TestHybridMatchesOracleEverywhere audits three hybrid runs per family
// and test graph. The persistent axis is the crew's lifetime:
// persistent=false runs each search on the one-shot path (a fresh
// engine, crew spawned and stopped per run), persistent=true reuses
// one engine, so its crew persists across the runs.
func TestHybridMatchesOracleEverywhere(t *testing.T) {
	graphs := testGraphs(t)
	for _, algo := range parallelAlgos {
		for _, persistent := range []bool{false, true} {
			algo, persistent := algo, persistent
			t.Run(fmt.Sprintf("%s/persistent=%v", algo, persistent), func(t *testing.T) {
				t.Parallel()
				opt := Options{Workers: 4, Seed: 7, Hybrid: true, TrackParents: true}
				for name, g := range graphs {
					var e *Engine
					if persistent {
						var err error
						if e, err = NewEngine(g, algo, opt); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					for run := 0; run < 3; run++ {
						var res *Result
						var err error
						if e != nil {
							res, err = e.Run(0)
						} else {
							res, err = Run(g, 0, algo, opt)
						}
						if err != nil {
							t.Fatalf("%s run %d: %v", name, run, err)
						}
						func() {
							defer func() {
								if t.Failed() {
									t.Logf("graph %s run %d", name, run)
								}
							}()
							checkHybridRun(t, g, 0, res)
						}()
					}
					if e != nil {
						e.Close()
					}
				}
			})
		}
	}
}

// TestHybridActuallySwitches pins that the heuristics really take the
// bottom-up path on the frontier shapes they exist for — otherwise the
// oracle tests would vacuously pass on an all-top-down engine — and
// that on a complete graph the bottom-up early exit scans fewer edges
// than the m a pure top-down search must scan.
func TestHybridActuallySwitches(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() (*graph.CSR, error)
	}{
		{"complete", func() (*graph.CSR, error) { return gen.Complete(40) }},
		{"rmat", func() (*graph.CSR, error) { return gen.Graph500RMAT(2048, 16384, 42, gen.Options{}) }},
	} {
		g, err := tc.g()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, 0, BFSWSL, Options{Workers: 4, Hybrid: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.BottomUpLevels == 0 {
			t.Fatalf("%s: hybrid run never went bottom-up (levels=%d td=%d)",
				tc.name, res.Levels, res.Counters.TopDownLevels)
		}
		if tc.name == "complete" && res.Counters.EdgesScanned >= g.NumEdges() {
			t.Fatalf("complete: hybrid scanned %d edges of %d: no bottom-up savings",
				res.Counters.EdgesScanned, g.NumEdges())
		}
	}
}

// TestHybridParentClaimFilter runs the §IV-D claim filter through both
// representation conversions: vertices discovered bottom-up re-enter
// the queues via the compaction scatter, which must record the claim
// the pop-side filter checks.
func TestHybridParentClaimFilter(t *testing.T) {
	for name, g := range testGraphs(t) {
		res, err := Run(g, 0, BFSWL, Options{
			Workers: 4, Hybrid: true, ParentClaim: true, TrackParents: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkHybridRun(t, g, 0, res)
	}
}

// flipController forces a direction change at every level boundary
// whose (seeded, deterministic) coin lands heads, regardless of what
// the heuristics chose — driving the representation conversions
// through hostile boundaries (tiny frontiers, mid-growth switches,
// empty final frontiers).
type flipController struct {
	state uint64
	flips int64
}

func (f *flipController) At(point ChaosPoint, worker int, value int64) {}

func (f *flipController) DirectionChoice(level int32, bottomUp bool) bool {
	// SplitMix64 step; deterministic across runs for a given seed.
	f.state += 0x9e3779b97f4a7c15
	z := f.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z&1 == 0 {
		atomic.AddInt64(&f.flips, 1)
		return !bottomUp
	}
	return bottomUp
}

func TestHybridForcedDirectionFlips(t *testing.T) {
	graphs := testGraphs(t)
	for _, algo := range []Algorithm{BFSWL, BFSWSL, BFSEL} {
		for name, g := range graphs {
			ctl := &flipController{state: 0xf11b}
			e, err := NewEngine(g, algo, Options{
				Workers: 4, Seed: 3, Hybrid: true, TrackParents: true,
				Chaos: ctl,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, name, err)
			}
			for run := 0; run < 3; run++ {
				res, err := e.Run(0)
				if err != nil {
					e.Close()
					t.Fatalf("%s/%s run %d: %v", algo, name, run, err)
				}
				func() {
					defer func() {
						if t.Failed() {
							t.Logf("algo %s graph %s run %d", algo, name, run)
						}
					}()
					checkHybridRun(t, g, 0, res)
				}()
			}
			e.Close()
			if ctl.flips == 0 {
				t.Fatalf("%s/%s: controller never flipped a decision", algo, name)
			}
		}
	}
}

func TestHybridSharded(t *testing.T) {
	graphs := testGraphs(t)
	for _, shards := range shardCounts {
		for _, algo := range []Algorithm{BFSWL, BFSWSL} {
			shards, algo := shards, algo
			t.Run(fmt.Sprintf("%s/s%d", algo, shards), func(t *testing.T) {
				t.Parallel()
				for name, g := range graphs {
					e := newShardedForTest(t, g, shards, algo, Options{
						Workers: 4, Seed: 11, Hybrid: true, TrackParents: true,
					})
					for run := 0; run < 3; run++ {
						res, err := e.Run(0)
						if err != nil {
							e.Close()
							t.Fatalf("%s run %d: %v", name, run, err)
						}
						func() {
							defer func() {
								if t.Failed() {
									t.Logf("graph %s shards %d run %d", name, shards, run)
								}
							}()
							checkHybridRun(t, g, 0, res)
						}()
					}
					e.Close()
				}
			})
		}
	}
}

// TestHybridShardedForcedFlips drives the sharded conversions (global
// bitmap merge, per-shard compaction) through forced switches.
func TestHybridShardedForcedFlips(t *testing.T) {
	graphs := testGraphs(t)
	for name, g := range graphs {
		ctl := &flipController{state: 0x5a5a}
		e := newShardedForTest(t, g, 4, BFSWSL, Options{
			Workers: 2, Seed: 5, Hybrid: true, TrackParents: true, Chaos: ctl,
		})
		res, err := e.Run(0)
		if err != nil {
			e.Close()
			t.Fatalf("%s: %v", name, err)
		}
		checkHybridRun(t, g, 0, res)
		e.Close()
	}
}

func TestHybridSerialRejected(t *testing.T) {
	g, err := gen.Path(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(g, Serial, Options{Hybrid: true}); err == nil {
		t.Fatal("NewEngine(Serial, Hybrid) succeeded, want error")
	}
	if _, err := Run(g, 0, Serial, Options{Hybrid: true}); err == nil {
		t.Fatal("Run(Serial, Hybrid) succeeded, want error")
	}
}

// TestHybridReorderCompose runs hybrid over both reorder modes: the
// transpose is taken from the relabeled CSR, so distances must still
// come back in original ids.
func TestHybridReorderCompose(t *testing.T) {
	graphs := testGraphs(t)
	for _, mode := range []ReorderMode{ReorderDegree, ReorderBFS} {
		for name, g := range graphs {
			e, err := NewEngine(g, BFSWSL, Options{
				Workers: 4, Hybrid: true, Reorder: mode, TrackParents: true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, name, err)
			}
			res, err := e.Run(0)
			if err != nil {
				e.Close()
				t.Fatalf("%s/%s: %v", mode, name, err)
			}
			checkHybridRun(t, g, 0, res)
			e.Close()
		}
	}
}

// TestHybridTimelineFrontiers pins that the per-level timeline stays
// truthful through direction switches: each LevelStat's Frontier must
// reflect the level's real frontier size (deduplicated while bottom-up,
// duplicate-bearing queue volume while top-down, as documented).
func TestHybridTimelineFrontiers(t *testing.T) {
	g, err := gen.Graph500RMAT(2048, 16384, 9, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, BFSWSL, Options{Workers: 4, Hybrid: true, LevelTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelStats) != int(res.Levels) {
		t.Fatalf("timeline has %d levels, want %d", len(res.LevelStats), res.Levels)
	}
	var frontierSum int64
	for _, ls := range res.LevelStats {
		frontierSum += ls.Frontier
	}
	// Frontier sums can exceed Reached (top-down queues carry benign
	// duplicates) but can never fall short: every reached vertex was in
	// exactly one level's frontier.
	if frontierSum < res.Reached {
		t.Fatalf("timeline frontier sum %d < reached %d", frontierSum, res.Reached)
	}
}

// dupStormGraph builds a layered graph engineered to flood the
// top-down step with duplicate discoveries: src fans out to a wide
// layer A, and every A vertex points at every vertex of a second layer
// B (plus a long tail chain off B to keep the search running after the
// switch window). With p workers exploring layer A concurrently, each
// B vertex races p discoverers and the raw next frontier carries up to
// |A| copies of every B vertex — the shape that would inflate nf/mf and
// over-drain the unexplored budget if the switch read raw queue volume.
func dupStormGraph(t *testing.T, a, b, tail int) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	n := int32(1 + a + b + tail)
	av := func(i int) int32 { return int32(1 + i) }
	bv := func(i int) int32 { return int32(1 + a + i) }
	tv := func(i int) int32 { return int32(1 + a + b + i) }
	for i := 0; i < a; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: av(i)})
	}
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, graph.Edge{Src: av(i), Dst: bv(j)})
		}
	}
	for i := 0; i < tail; i++ {
		src := tv(i - 1)
		if i == 0 {
			src = bv(0)
		}
		edges = append(edges, graph.Edge{Src: src, Dst: tv(i)})
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oracleSchedule recomputes the switch schedule the alpha/beta
// heuristics must produce when fed exact per-level counters: the level
// sets come from the serial reference (direction choice changes work,
// never the level sets), nf/mf are their exact sizes and out-degree
// sums, and the budget follows the engine's convention — seeded as
// m − outdeg(src), the frontier under decision subtracted, clamped at
// zero. Entry d is the direction chosen for level d+1, decided at the
// barrier that promotes frontier d+1, through the empty frontier past
// the last level.
func oracleSchedule(g *graph.CSR, src int32, alpha, beta int64) []bool {
	dist := graph.ReferenceBFS(g, src)
	depth := graph.Eccentricity(dist)
	nf := make([]int64, depth+2)
	mf := make([]int64, depth+2)
	for v := int32(0); v < g.NumVertices(); v++ {
		if d := dist[v]; d >= 0 {
			nf[d]++
			mf[d] += g.OutDegree(v)
		}
	}
	n := int64(g.NumVertices())
	unexplored := g.NumEdges() - mf[0]
	bottomUp := false
	prevNf := nf[0]
	dirs := make([]bool, 0, depth+1)
	for d := int32(1); d <= depth+1; d++ {
		unexplored -= mf[d]
		if unexplored < 0 {
			unexplored = 0
		}
		bottomUp = hybridDecide(bottomUp, nf[d], mf[d], unexplored, prevNf, n, alpha, beta, 0, false)
		prevNf = nf[d]
		dirs = append(dirs, bottomUp)
	}
	return dirs
}

// directionRecorder observes the hybrid decision at every level
// barrier without overriding it.
type directionRecorder struct{ dirs []bool }

func (r *directionRecorder) At(ChaosPoint, int, int64) {}

func (r *directionRecorder) DirectionChoice(level int32, bottomUp bool) bool {
	r.dirs = append(r.dirs, bottomUp)
	return bottomUp
}

// TestHybridSwitchScheduleExactUnderDuplicates is the accounting
// regression: on the duplicate storm graph the engine's per-level
// switch schedule must equal the exact-counter oracle schedule on
// every run. If the raw duplicate-bearing queues drove the decisions,
// the schedule would depend on how many duplicate copies the racing
// workers happened to append — wrong and nondeterministic. Real races
// are timing-dependent, so the test first plants the worst case
// deterministically: layer B queued once per worker, as if every
// worker had won every race, must still count as |B| vertices and
// their exact out-degree sum at the barrier.
func TestHybridSwitchScheduleExactUnderDuplicates(t *testing.T) {
	const a, b = 64, 48
	g := dupStormGraph(t, a, b, 40)

	st := newState(g, 0, Options{Workers: 4, Hybrid: true}.withDefaults())
	var wantMf int64
	for j := 0; j < b; j++ {
		wantMf += g.OutDegree(int32(1 + a + j))
	}
	for i := range st.in {
		buf := st.in[i].buf[:0]
		for j := 0; j < b; j++ {
			buf = append(buf, int32(1+a+j)+1)
		}
		st.in[i].buf = append(buf, emptySlot)
		st.in[i].origR = b
	}
	if nf, mf := st.hy.dedupFrontier(st); nf != b || mf != wantMf {
		t.Fatalf("dedup of %d-fold duplicated layer: nf=%d mf=%d, want %d/%d", len(st.in), nf, mf, b, wantMf)
	}

	want := oracleSchedule(g, 0, 15, 18)
	var sawBottomUp bool
	for _, b := range want {
		sawBottomUp = sawBottomUp || b
	}
	if !sawBottomUp {
		t.Fatal("oracle schedule never goes bottom-up; the graph no longer exercises the switch")
	}
	rec := &directionRecorder{}
	e, err := NewEngine(g, BFSWSL, Options{Workers: 4, Hybrid: true, Chaos: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	oracle := graph.ReferenceBFS(g, 0)
	for run := 0; run < 20; run++ {
		rec.dirs = rec.dirs[:0]
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.EqualDistances(res.Dist, oracle); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := rec.dirs
		if len(got) != len(want) {
			t.Fatalf("run %d: %d decisions, want %d (%v vs %v)", run, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: level %d direction = %v, want %v (schedule %v, oracle %v)",
					run, i+1, got[i], want[i], got, want)
			}
		}
	}
}

// forcedDirections runs exactly the listed directions, overriding the
// heuristics: entry i is the direction of level i+1, later levels run
// top-down.
type forcedDirections []bool

func (f forcedDirections) At(ChaosPoint, int, int64) {}

func (f forcedDirections) DirectionChoice(level int32, _ bool) bool {
	return int(level) <= len(f) && f[level-1]
}

// TestHybridKernelCounterParity runs the same level of the same search
// (layer A → layer B of the duplicate storm graph) once per kernel and
// pins the cross-direction counter contract that makes PerWorker sums
// comparable: Pops counts the vertices whose adjacency a kernel walked
// (the frontier top-down, every unvisited vertex bottom-up, not just
// the hits), EdgesScanned the edges actually inspected, and Discovered
// the new vertices, without duplicates on the race-free bottom-up side.
func TestHybridKernelCounterParity(t *testing.T) {
	const a, b = 32, 24
	g := dupStormGraph(t, a, b, 8)
	n := int64(g.NumVertices())
	level1 := func(bottomUp bool) LevelStat {
		t.Helper()
		e, err := NewEngine(g, BFSWSL, Options{
			Workers: 4, Hybrid: true, LevelTimeline: true,
			Chaos: forcedDirections{bottomUp},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		checkHybridRun(t, g, 0, res)
		if got := res.Counters.BottomUpLevels > 0; got != bottomUp {
			t.Fatalf("bottom-up levels %d, want level 1 bottom-up = %v", res.Counters.BottomUpLevels, bottomUp)
		}
		return res.LevelStats[1]
	}
	td, bu := level1(false), level1(true)

	if td.Discovered < b || bu.Discovered != b {
		t.Fatalf("Discovered TD=%d BU=%d, want >= %d and exactly %d (the race-free kernel must not duplicate)",
			td.Discovered, bu.Discovered, b, b)
	}
	if td.Pops != a {
		t.Fatalf("TD Pops=%d, want frontier size %d", td.Pops, a)
	}
	if want := n - 1 - a; bu.Pops != want {
		t.Fatalf("BU Pops=%d, want unvisited count %d (pops count scanned vertices, not hits)", bu.Pops, want)
	}
	if td.EdgesScanned != a*b {
		t.Fatalf("TD EdgesScanned=%d, want %d", td.EdgesScanned, a*b)
	}
	// The early exit scans at least one in-edge per discovery and at
	// most the full in-degree of every scanned vertex.
	tg := g.Transpose()
	var buMax int64
	for v := int32(1 + a); v < int32(n); v++ {
		buMax += tg.OutDegree(v)
	}
	if bu.EdgesScanned < bu.Discovered || bu.EdgesScanned > buMax {
		t.Fatalf("BU EdgesScanned=%d outside [%d, %d]", bu.EdgesScanned, bu.Discovered, buMax)
	}
}
