package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// checkHybridRun holds a hybrid Result to the audit contract, which
// relaxes the queue-shaped bounds once a level went bottom-up, and to
// the per-direction level split. want and goal are Audit's (nil want
// computes the oracle).
func checkHybridRun(t testing.TB, g *graph.CSR, src int32, want []int32, goal Goal, res *Result) {
	t.Helper()
	requireClean(t, Audit(g, src, want, goal, res), "hybrid run")
	if got := res.Counters.TopDownLevels + res.Counters.BottomUpLevels; got != int64(res.Levels) {
		t.Fatalf("TopDownLevels+BottomUpLevels = %d, want Levels = %d", got, res.Levels)
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
	// One SplitMix64 step; deterministic across runs for a given seed.
	z := rng.Mix64(f.state)
	f.state += 0x9e3779b97f4a7c15
	if z&1 == 0 {
		atomic.AddInt64(&f.flips, 1)
		return !bottomUp
	}
	return bottomUp
}

func TestHybridForcedDirectionFlips(t *testing.T) {
	for _, algo := range []Algorithm{BFSWL, BFSWSL, BFSEL} {
		for _, name := range suiteGraphs {
			g := matrixGraph(t, name)
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
				checkHybridRun(cellT{t, fmt.Sprintf("%s/%s run %d", algo, name, run)}, g, 0, oracle(g, 0), Goal{}, res)
			}
			e.Close()
			if ctl.flips == 0 {
				t.Fatalf("%s/%s: controller never flipped a decision", algo, name)
			}
		}
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

	want := oracleSchedule(g, 0, hybridAlpha, hybridBeta)
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
	for run := 0; run < 20; run++ {
		rec.dirs = rec.dirs[:0]
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		checkHybridRun(t, g, 0, oracle(g, 0), Goal{}, res)
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
// (the frontier top-down, duplicate pops included; every unvisited
// vertex bottom-up, not just the hits), EdgesScanned the edges actually
// inspected, and Discovered the new vertices, without duplicates on the
// race-free bottom-up side.
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
		checkHybridRun(t, g, 0, nil, Goal{}, res)
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
	// Top-down, a stolen slot may be popped twice at 4 workers (a
	// benign duplicate), so pops count the frontier plus duplicates.
	if td.Pops < a || td.Pops-td.Duplicates != a {
		t.Fatalf("TD Pops=%d Duplicates=%d, want frontier size %d plus duplicates", td.Pops, td.Duplicates, a)
	}
	if want := n - 1 - a; bu.Pops != want {
		t.Fatalf("BU Pops=%d, want unvisited count %d (pops count scanned vertices, not hits)", bu.Pops, want)
	}
	// No layer-A vertex reaches the hot threshold, so every pop,
	// duplicate or not, scans its b edges.
	if td.EdgesScanned != td.Pops*b {
		t.Fatalf("TD EdgesScanned=%d, want Pops×%d = %d", td.EdgesScanned, b, td.Pops*b)
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
