package core

// The oracle matrix: one table of named rows and one runner for every
// graph × algorithm × option sweep in the package. A row is an
// algorithm set plus its axes; the runner expands it into cells (the
// full product, or a pairwise grid), runs each cell under its engine
// lifetime, and judges every solo Result with Audit and every fused
// lane with AuditAnswer against the serial oracle, cached per
// (graph, source). A row with lane counts is a fused row: its cells run
// MSEngine lanes over laneSources, each lane-count list on one engine.
// The tests owning rows are one-line calls at the end.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// lifetime is the engine-lifetime axis of a solo cell.
type lifetime uint8

const (
	oneShot lifetime = iota // package-level RunGoal: a fresh engine per run
	warm                    // one Engine for every source and goal, then one unbounded run
)

// matrixRow is one named row. An empty axis takes one default value
// (Workers 4, everything else off); graphs nil is the suite.
type matrixRow struct {
	test, name string // owning test; subtest name
	graphs     []string
	algos      []Algorithm
	workers    []int
	hybrid     []bool
	reorder    []ReorderMode
	parents    []bool
	claim      []bool
	segment    []int // SegmentSize
	pools      []int
	lives      []lifetime
	goals      []bool // true: each source runs goalCases instead of one unbounded run
	opt        Options
	sources    []int32 // nil is {0}; a negative entry s is vertex n+s
	every      bool    // every vertex is a source
	reps       int     // runs per source and goal
	lanes      [][]int // fused lane counts; a row with lanes runs no solo cells
	pairwise   bool    // expand a pairwise grid, not the product
	long       bool    // a stress row (many workers, tiny segments, many reps): skipped under -short
	levels     []int32 // unbounded solo runs must take one of these level counts
}

// matrixCell is one expanded point of a row.
type matrixCell struct {
	graph string
	algo  Algorithm
	opt   Options
	life  lifetime
	goals bool
}

func (c matrixCell) String() string {
	o := c.opt
	return fmt.Sprintf("%s/%s/p%d/%s hybrid=%t reorder=%q parents=%t claim=%t seg=%d pools=%d goals=%t", c.graph,
		c.algo, o.Workers, [...]string{"oneshot", "warm"}[c.life], o.Hybrid, o.Reorder, o.TrackParents,
		o.ParentClaim, o.SegmentSize, o.Pools, c.goals)
}

func or[T any](vs []T, def T) []T {
	if len(vs) == 0 {
		return []T{def}
	}
	return vs
}

// cells expands the row's axes.
func (r matrixRow) cells() []matrixCell {
	graphs, algos, workers := r.graphs, or(r.algos, BFSWL), or(r.workers, 4)
	hybrid, reorder, parents, claim := or(r.hybrid, false), or(r.reorder, ""), or(r.parents, false), or(r.claim, false)
	segment, pools, lives, goals := or(r.segment, 0), or(r.pools, 0), or(r.lives, oneShot), or(r.goals, false)
	if graphs == nil {
		graphs = suiteGraphs
	}
	sizes := []int{len(graphs), len(algos), len(workers), len(hybrid), len(reorder), len(parents),
		len(claim), len(segment), len(pools), len(lives), len(goals)}
	grid := [][]int{{}}
	if r.pairwise {
		grid = pairwiseGrid(sizes)
	} else {
		for _, n := range sizes {
			var next [][]int
			for _, x := range grid {
				for v := 0; v < n; v++ {
					next = append(next, append(slices.Clone(x), v))
				}
			}
			grid = next
		}
	}
	var out []matrixCell
	for _, x := range grid {
		opt := r.opt
		opt.Workers, opt.Hybrid, opt.Reorder = workers[x[2]], hybrid[x[3]], reorder[x[4]]
		opt.TrackParents, opt.ParentClaim = parents[x[5]], claim[x[6]]
		opt.SegmentSize, opt.Pools, opt.Seed = segment[x[7]], pools[x[8]], max(r.opt.Seed, 1)
		out = append(out, matrixCell{graphs[x[0]], algos[x[1]], opt, lives[x[9]], goals[x[10]]})
	}
	return out
}

// pairwiseGrid returns index tuples that hold every pair of values of
// every two axes at least once. Each tuple starts from the first
// uncovered pair in axis order and fills its other axes, in order,
// with the value covering the most still-uncovered pairs against the
// axes already set (the lowest on ties), so the grid is deterministic.
func pairwiseGrid(sizes []int) [][]int {
	type pair struct{ a, va, b, vb int }
	key := func(a, va, b, vb int) pair {
		if a > b {
			return pair{b, vb, a, va}
		}
		return pair{a, va, b, vb}
	}
	covered := map[pair]bool{}
	var grid [][]int
	for a := range sizes {
		for b := a + 1; b < len(sizes); b++ {
			for i := 0; i < sizes[a]*sizes[b]; i++ {
				if covered[key(a, i/sizes[b], b, i%sizes[b])] {
					continue
				}
				x := make([]int, len(sizes))
				for ax := range x {
					x[ax] = -1
				}
				x[a], x[b] = i/sizes[b], i%sizes[b]
				for ax := range x {
					if x[ax] >= 0 {
						continue
					}
					for v, best := 0, -1; v < sizes[ax]; v++ {
						gain := 0
						for o, ov := range x {
							if o != ax && ov >= 0 && !covered[key(o, ov, ax, v)] {
								gain++
							}
						}
						if gain > best {
							x[ax], best = v, gain
						}
					}
				}
				for i := range x {
					for j := i + 1; j < len(x); j++ {
						covered[key(i, x[i], j, x[j])] = true
					}
				}
				grid = append(grid, x)
			}
		}
	}
	return grid
}

// suiteGraphs names the structural extremes every sweep must survive:
// deep paths, hub hotspots, dense duplicate storms, scale-free skew,
// meshes, random graphs, unreachable parts and self-loops.
var suiteGraphs = []string{"single", "two", "path", "star", "cycle", "tree", "complete", "grid",
	"rmat", "chunglu", "layered", "er", "disjoint", "selfloops"}

// propGraphs is the size of the seeded random-RMAT family
// "rmat-prop-i": 2 + s%300 vertices and s%2000 requested edges.
const propGraphs = 120

type graphFn = func() (*graph.CSR, error)

// matrixGraphs builds every named graph the package's tests share.
var matrixGraphs = func() map[string]graphFn {
	edges := func(n int32, es ...graph.Edge) graphFn {
		return func() (*graph.CSR, error) { return graph.FromEdges(n, es, graph.BuildOptions{}) }
	}
	chungLu := func(n int32, m int64, exp float64, seed uint64) graphFn {
		return func() (*graph.CSR, error) { return gen.ChungLu(n, m, exp, seed, gen.Options{}) }
	}
	rmat := func(n int32, m int64, seed uint64) graphFn {
		return func() (*graph.CSR, error) { return gen.Graph500RMAT(n, m, seed, gen.Options{}) }
	}
	layered := func(n int32, m int64, levels int32, seed uint64) graphFn {
		return func() (*graph.CSR, error) { return gen.LayeredRandom(n, m, levels, seed, gen.Options{}) }
	}
	er := func(n int32, m int64, seed uint64) graphFn {
		return func() (*graph.CSR, error) { return gen.ErdosRenyi(n, m, seed, gen.Options{}) }
	}
	path := func(n int32) graphFn { return func() (*graph.CSR, error) { return gen.Path(n) } }
	m := map[string]graphFn{
		"single": edges(1), "two": edges(2, graph.Edge{Src: 0, Dst: 1}),
		"disjoint":  edges(100, graph.Edge{Src: 0, Dst: 1}, graph.Edge{Src: 2, Dst: 3}),
		"unreached": edges(10, graph.Edge{Src: 0, Dst: 1}, graph.Edge{Src: 5, Dst: 6}),
		"selfloops": edges(50, graph.Edge{Src: 0, Dst: 0}, graph.Edge{Src: 0, Dst: 1}, graph.Edge{Src: 1, Dst: 1}, graph.Edge{Src: 1, Dst: 2}),
		"path":      path(257), "path-2000": path(2000), "path-3": path(3),
		"star":         func() (*graph.CSR, error) { return gen.Star(300) },
		"cycle":        func() (*graph.CSR, error) { return gen.Cycle(100) },
		"tree":         func() (*graph.CSR, error) { return gen.BinaryTree(255) },
		"complete":     func() (*graph.CSR, error) { return gen.Complete(40) },
		"grid":         func() (*graph.CSR, error) { return gen.Grid2D(17, 19, false) },
		"complete-600": func() (*graph.CSR, error) { return gen.Complete(600) }, "er-5000": er(5000, 40000, 21),
		"er": er(1500, 6000, 3), "er-1000": er(1000, 6000, 1), "er-2000": er(2000, 10000, 2), "er-2000b": er(2000, 12000, 2),
		"rmat": rmat(2048, 16384, 42), "rmat-4096": rmat(4096, 32768, 9), "rmat-8192": rmat(8192, 131072, 3),
		"chunglu": chungLu(2048, 16384, 2.2, 7), "chunglu-2048": chungLu(2048, 16384, 2.1, 7),
		"chunglu-3000": chungLu(3000, 20000, 2.1, 5), "chunglu-4096": chungLu(4096, 32768, 2.1, 21),
		"chunglu-4096b": chungLu(4096, 32768, 2.1, 5), "chunglu-150": chungLu(150, 900, 2.3, 17),
		"chunglu-30000": chungLu(30000, 300000, 2.0, 31),
		"layered":       layered(2000, 12000, 23, 9), "layered-1200": layered(1200, 7000, 15, 5),
		"layered-3000": layered(3000, 18000, 12, 8), "layered-deep": layered(20000, 100000, 400, 13),
	}
	for i := 0; i < propGraphs; i++ {
		s := rng.Mix64(uint64(i) + 0x9e37)
		m[fmt.Sprintf("rmat-prop-%d", i)] = rmat(int32(2+s%300), int64(s%2000), s)
	}
	return m
}()

var (
	cacheMu sync.Mutex
	graphs  = map[string]*graph.CSR{}
	oracles = map[oracleKey][]int32{}
)

type oracleKey struct {
	g   *graph.CSR
	src int32
}

// matrixGraph returns the named graph, built once per process: graphs
// are immutable, so every test shares them.
func matrixGraph(t testing.TB, name string) *graph.CSR {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if graphs[name] == nil {
		g, err := matrixGraphs[name]()
		if err != nil {
			t.Fatalf("graph %s: %v", name, err)
		}
		graphs[name] = g
	}
	return graphs[name]
}

// oracle returns graph.ReferenceBFS(g, src), computed once per process.
func oracle(g *graph.CSR, src int32) []int32 {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	k := oracleKey{g, src}
	if oracles[k] == nil {
		oracles[k] = graph.ReferenceBFS(g, src)
	}
	return oracles[k]
}

// goalCases picks the interesting goals for a source from its oracle
// distances want: the source itself, near/mid/far targets, an
// unreachable target when one exists, depth bounds straddling the
// eccentricity, and combined target+depth goals where each side wins.
func goalCases(want []int32) []Goal {
	ecc := graph.Eccentricity(want)
	cases := []Goal{{}, GoalTo(int32(slices.Index(want, 0))), {MaxDepth: 1}} // {} must degrade to a plain run
	if ecc > 0 {
		cases = append(cases, Goal{MaxDepth: ecc}, Goal{MaxDepth: ecc + 3})
	}
	for _, depth := range []int32{ecc, ecc / 2} {
		if v := int32(slices.Index(want, depth)); v >= 0 {
			cases = append(cases, GoalTo(v),
				Goal{Target: v + 1, MaxDepth: depth + 2}, // target wins
				Goal{Target: v + 1, MaxDepth: 1})         // depth wins (unless depth==1)
		}
	}
	if v := int32(slices.Index(want, graph.Unreached)); v >= 0 {
		cases = append(cases, GoalTo(v)) // unreachable: full run, untruncated
	}
	return cases
}

// laneSources spreads k sources over g, with deliberate duplicates
// once k exceeds the vertex count or 8 (two lanes sharing a source is
// a case the mask merge must handle).
func laneSources(g *graph.CSR, k int) []int32 {
	srcs := make([]int32, k)
	for i := range srcs {
		srcs[i] = int32(i*7) % g.NumVertices()
	}
	if k > 8 {
		srcs[k-1] = srcs[0]
	}
	return srcs
}

// requireClean fails the test when the audit contract reports any
// violation; format and args name the run.
func requireClean(t testing.TB, vs []Violation, format string, args ...any) {
	t.Helper()
	if err := AuditError(vs); err != nil {
		t.Fatalf("%s: %v", fmt.Sprintf(format, args...), err)
	}
}

// checkRun executes algo once and holds its result to the audit contract.
func checkRun(t *testing.T, g *graph.CSR, src int32, algo Algorithm, opt Options) *Result {
	t.Helper()
	res, err := Run(g, src, algo, opt)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	requireClean(t, Audit(g, src, nil, Goal{}, res), "%s (workers=%d)", algo, opt.Workers)
	return res
}

// runMatrix runs the rows of the calling test, a parallel subtest each.
func runMatrix(t *testing.T) {
	for _, r := range oracleMatrix {
		if r.test == t.Name() {
			t.Run(r.name, func(t *testing.T) {
				if r.long && testing.Short() {
					t.Skip("stress row")
				}
				t.Parallel()
				for _, c := range r.cells() {
					r.run(t, c, matrixGraph(t, c.graph))
				}
			})
		}
	}
}

// cellT prefixes a cell's name to the failures of the shared checks.
type cellT struct {
	testing.TB
	where string
}

func (t cellT) Fatalf(format string, args ...any) {
	t.TB.Helper()
	t.TB.Fatalf("%s: %s", t.where, fmt.Sprintf(format, args...))
}

func (r matrixRow) run(t *testing.T, c matrixCell, g *graph.CSR) {
	if r.lanes != nil {
		r.runFused(cellT{t, fmt.Sprintf("%s/p%d fused", c.graph, c.opt.Workers)}, c, g)
		return
	}
	n, srcs := g.NumVertices(), or(r.sources, 0)
	if r.every {
		srcs = make([]int32, n)
		for v := range srcs {
			srcs[v] = int32(v)
		}
	}
	var e *Engine
	if c.life == warm {
		var err error
		if e, err = NewEngine(g, c.algo, c.opt); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		defer e.Close()
		if c.opt.Reorder != "" && (e.Graph() != g || e.Permutation() == nil) {
			t.Fatalf("%s: Graph() is not the original graph, or no permutation is installed", c)
		}
	}
	for rep := 0; rep < max(1, r.reps); rep++ {
		for _, src := range srcs {
			src = (src + n) % n
			goals := []Goal{{}}
			if c.goals {
				goals = goalCases(oracle(g, src))
			}
			for _, goal := range goals {
				var res *Result
				var err error
				if e != nil {
					res, err = e.RunGoal(context.Background(), src, goal)
				} else {
					opt := c.opt
					if r.opt.Seed == 0 { // seeds vary by repetition unless the row fixes one
						opt.Seed = uint64(rep + 1)
					}
					res, err = RunGoal(context.Background(), g, src, c.algo, opt, goal)
				}
				r.judge(t, c, g, src, goal, res, err, "src=%d goal=%+v rep=%d", src, goal, rep)
			}
		}
	}
	if e != nil && c.goals {
		src := (srcs[0] + n) % n
		res, err := e.Run(src)
		r.judge(t, c, g, src, Goal{}, res, err, "unbounded run after the goals (a goal leaked)")
	}
}

// runFused runs each lane-count list of the row on one fused engine
// and holds every lane to checkLane.
func (r matrixRow) runFused(t cellT, c matrixCell, g *graph.CSR) {
	for _, ks := range r.lanes {
		e, err := NewMSEngine(g, c.opt)
		if err != nil {
			t.Fatalf("%v", err)
		}
		defer e.Close()
		for _, k := range ks {
			res, err := e.Run(laneSources(g, k))
			if err != nil {
				t.Fatalf("lanes=%d: %v", k, err)
			}
			if res.Lanes != k {
				t.Fatalf("Lanes = %d, want %d", res.Lanes, k)
			}
			for i := 0; i < k; i++ {
				lr := res.Lane(i)
				checkLane(cellT{t, fmt.Sprintf("lane %d of %d", i, k)}, g, oracle(g, lr.Src), lr)
			}
		}
	}
}

// judge holds one solo Result to the audit contract and to the
// invariants every cell shares.
func (r matrixRow) judge(tt *testing.T, c matrixCell, g *graph.CSR, src int32, goal Goal, res *Result, err error, format string, args ...any) {
	tt.Helper()
	t := cellT{tt, fmt.Sprintf("%s %s", c, fmt.Sprintf(format, args...))}
	if err != nil {
		t.Fatalf("%v", err)
	}
	switch {
	case c.algo == Serial && !goal.Bounded() && res.Duplicates() != 0:
		t.Fatalf("serial run reported %d duplicates", res.Duplicates())
	case c.algo != Serial && res.Workers != c.opt.Workers:
		t.Fatalf("Workers = %d, want %d", res.Workers, c.opt.Workers)
	case c.opt.TrackParents && res.Parent == nil:
		t.Fatalf("TrackParents run returned no parents")
	case r.levels != nil && !goal.Bounded() && !slices.Contains(r.levels, res.Levels):
		t.Fatalf("Levels = %d, want one of %v", res.Levels, r.levels)
	}
	if c.opt.Hybrid {
		checkHybridRun(t, g, src, oracle(g, src), goal, res)
		return
	}
	requireClean(t, Audit(g, src, oracle(g, src), goal, res), "audit")
}

var (
	on, both    = []bool{true}, []bool{false, true}
	reorders    = []ReorderMode{ReorderDegree, ReorderBFS}
	allReorders = []ReorderMode{"", ReorderDegree, ReorderBFS}
	fourWorkers = []int{1, 2, 3, 8}
	// pairGraphs are the suite shapes the pairwise rows cross: a deep
	// path, a hub, a mesh, a skewed random graph, a many-level layered
	// graph, and one with unreachable targets.
	pairGraphs    = []string{"path", "star", "grid", "rmat", "layered", "disjoint"}
	parallelAlgos = []Algorithm{BFSC, BFSCL, BFSDL, BFSW, BFSWL, BFSWS, BFSWSL, BFSEL}
)

// oracleMatrix is the table, grouped by owning test. The pairwise rows
// run the axis pairs no owning test runs.
var oracleMatrix = func() []matrixRow {
	lives := func(l ...lifetime) []lifetime { return l }
	algos := func(a ...Algorithm) []Algorithm { return a }
	str := func(s ...string) []string { return s }
	rows := []matrixRow{
		{test: "TestSerialMatchesOracleEverywhere", name: "serial", algos: algos(Serial)},
		{test: "TestPersistentWorkersMode", name: "warm", algos: parallelAlgos, lives: lives(warm), sources: []int32{0, -1}},
		{test: "TestPersistentWorkersDeepGraph", name: "path-2000", graphs: str("path-2000"), algos: algos(BFSCL, BFSWSL, BFSEL), workers: []int{8}, levels: []int32{2000}},
		{test: "TestRepeatedRunsStayCorrect", name: "chunglu", graphs: str("chunglu-4096"), algos: parallelAlgos, workers: []int{8}, reps: 10},
		{test: "TestDifferentSources", name: "layered", graphs: str("layered-1200"), algos: parallelAlgos, sources: []int32{0, 1, 599, 1199}},
		{test: "TestManyWorkersFewVertices", name: "path-3", graphs: str("path-3"), algos: parallelAlgos, workers: []int{16}},
		{test: "TestUnreachedVerticesStayUnreached", name: "unreached", graphs: str("unreached"), algos: parallelAlgos},
		{test: "TestSegmentSizeSweep", name: "er", graphs: str("er-2000"), algos: algos(BFSC, BFSCL), segment: []int{1, 2, 7, 64, 100000}},
		{test: "TestDecentralizedPoolSweep", name: "layered", graphs: str("layered-3000"), algos: algos(BFSDL), workers: []int{8}, pools: []int{1, 2, 3, 8, 100}},
		{test: "TestLevelSizesSumToReached", name: "er", graphs: str("er-2000b"), algos: algos(BFSDL)},
		{test: "TestRunContextCompletesNormally", name: "er", graphs: str("er-1000"), algos: algos(BFSCL)},
		{test: "TestEngineReuseMatchesOracle", name: "chunglu", graphs: str("chunglu-2048"), algos: Algorithms, lives: lives(warm), sources: []int32{0, 1, 5, 0, 1023, 5}},
		{test: "TestGoalDirectedMatrix", name: "serial", algos: algos(Serial), parents: on, lives: lives(warm), goals: on},
		{test: "TestGoalPersistentWorkers", name: "chunglu", graphs: str("chunglu-3000"), algos: algos(BFSWSL), parents: on, lives: lives(warm), goals: on,
			sources: []int32{0, 311, 622, 933, 1244, 1555, 1866, 2177}},
		{test: "TestHybridParentClaimFilter", name: "BFS_WL", algos: algos(BFSWL), hybrid: on, claim: on, parents: on},
		{test: "TestHybridReorderCompose", name: "BFS_WSL", algos: algos(BFSWSL), hybrid: on, reorder: reorders, parents: on, lives: lives(warm)},
		{test: "TestParentsValidForAllAlgorithms", name: "rmat", graphs: str("rmat-4096"), algos: Algorithms, workers: []int{8}, parents: on},
		{test: "TestParentsWithScaleFreeAndClaim", name: "chunglu", graphs: str("chunglu-4096b"), algos: algos(BFSWSL, BFSCL, BFSEL), workers: []int{8},
			parents: on, claim: on, opt: Options{Phase2Stealing: true}},
		{test: "TestReorderSemanticsPreserved", name: "chunglu", graphs: str("chunglu-2048"), algos: algos(Serial, BFSC, BFSCL, BFSWL, BFSWSL, BFSEL),
			reorder: reorders, parents: on, lives: lives(warm), sources: []int32{0, 1, 977, 2047}},
		{test: "TestMSBFSMatchesOracle", name: "fused", workers: []int{1, 3, 8}, lanes: [][]int{{1}, {8}, {64}}},
		{test: "TestMSBFSEngineReuse", name: "rmat", graphs: str("rmat"), lanes: [][]int{{64, 3, 17, 64, 1}}},
		{test: "TestStressDeepGraphManyLevels", name: "layered-deep", graphs: str("layered-deep"), algos: parallelAlgos, workers: []int{8},
			levels: []int32{400, 401}, long: true},
		{test: "TestStressDuplicateHeavyDenseGraph", name: "complete-600", graphs: str("complete-600"), algos: algos(BFSCL, BFSWL, BFSEL),
			workers: []int{12}, segment: []int{2}, reps: 5, long: true},
		{test: "TestStressRepeatedSameSeedIsSafe", name: "er-5000", graphs: str("er-5000"), algos: algos(BFSWSL), workers: []int{10},
			opt: Options{Seed: 42}, reps: 30, long: true},
		{test: "TestStressEveryVertexAsSource", name: "chunglu-150", graphs: str("chunglu-150"), algos: parallelAlgos, workers: []int{5}, every: true, long: true},

		// The pairwise grid over every axis, then two rows that fix a
		// triple no owning test runs and pair the other axes.
		{test: "TestOracleMatrixPairwise", name: "grid", graphs: pairGraphs, algos: parallelAlgos, workers: fourWorkers, hybrid: both,
			reorder: allReorders, parents: both, claim: both, lives: lives(oneShot, warm), goals: both, pairwise: true},
		{test: "TestOracleMatrixPairwise", name: "goal×reorder×hybrid", graphs: pairGraphs, algos: algos(BFSDL, BFSEL), workers: fourWorkers,
			hybrid: on, reorder: reorders, parents: both, claim: both, lives: lives(oneShot, warm), goals: on, pairwise: true},
		{test: "TestOracleMatrixPairwise", name: "claim×hybrid×goal", graphs: pairGraphs, algos: parallelAlgos, workers: fourWorkers,
			hybrid: on, reorder: allReorders, parents: both, claim: on, lives: lives(oneShot, warm), goals: on, pairwise: true},
	}
	for i, a := range parallelAlgos {
		for _, p := range []int{1, 2, 3, 4, 8} {
			rows = append(rows, matrixRow{test: "TestAllAlgorithmsAllGraphs", name: fmt.Sprintf("%s/p%d", a, p), algos: algos(a), workers: []int{p}})
		}
		for _, life := range []lifetime{oneShot, warm} {
			rows = append(rows, matrixRow{test: "TestHybridMatchesOracleEverywhere", name: fmt.Sprintf("%s/persistent=%t", a, life == warm),
				algos: algos(a), hybrid: on, parents: on, lives: lives(life), reps: 3})
		}
		// Graph j of the random-RMAT family runs algorithm j mod 8 at
		// j mod 8 + 1 workers, plain and hybrid, from its last vertex.
		var props []string
		for j := i; j < propGraphs; j += len(parallelAlgos) {
			props = append(props, fmt.Sprintf("rmat-prop-%d", j))
		}
		rows = append(rows,
			matrixRow{test: "TestPropertyAllAlgorithmsCorrect", name: string(a), graphs: props, algos: algos(a), workers: []int{i + 1}, hybrid: both, sources: []int32{-1}},
			matrixRow{test: "TestStressAllAlgorithmsHighContention", name: string(a), graphs: str("chunglu-30000"), algos: algos(a), workers: []int{16},
				segment: []int{1}, reps: 6, long: true})
	}
	for _, a := range []Algorithm{BFSC, BFSDL, BFSWSL, BFSEL} {
		rows = append(rows,
			matrixRow{test: "TestGoalDirectedMatrix", name: string(a), algos: algos(a), parents: on, lives: lives(warm), goals: on},
			matrixRow{test: "TestGoalDirectedMatrix", name: string(a) + "/hybrid", algos: algos(a), hybrid: on, parents: on, lives: lives(warm), goals: on})
	}
	for _, mode := range reorders {
		rows = append(rows, matrixRow{test: "TestGoalDirectedMatrix", name: "BFS_WSL/reorder-" + string(mode), algos: algos(BFSWSL),
			reorder: []ReorderMode{mode}, parents: on, lives: lives(warm), goals: on})
	}
	for _, p := range []int{2, 7, 13} {
		rows = append(rows, matrixRow{test: "TestStressManyOptionsMatrix", name: fmt.Sprintf("p%d", p), graphs: str("rmat-8192"), algos: parallelAlgos,
			workers: []int{p}, claim: both, parents: on, pools: []int{p / 2}, opt: Options{Sockets: 2}, long: true})
	}
	return rows
}()

// The sweeps: each runs exactly its rows of the table.
func TestSerialMatchesOracleEverywhere(t *testing.T)     { runMatrix(t) }
func TestAllAlgorithmsAllGraphs(t *testing.T)            { runMatrix(t) }
func TestPersistentWorkersMode(t *testing.T)             { runMatrix(t) }
func TestPersistentWorkersDeepGraph(t *testing.T)        { runMatrix(t) }
func TestRepeatedRunsStayCorrect(t *testing.T)           { runMatrix(t) }
func TestDifferentSources(t *testing.T)                  { runMatrix(t) }
func TestManyWorkersFewVertices(t *testing.T)            { runMatrix(t) }
func TestUnreachedVerticesStayUnreached(t *testing.T)    { runMatrix(t) }
func TestSegmentSizeSweep(t *testing.T)                  { runMatrix(t) }
func TestDecentralizedPoolSweep(t *testing.T)            { runMatrix(t) }
func TestLevelSizesSumToReached(t *testing.T)            { runMatrix(t) }
func TestRunContextCompletesNormally(t *testing.T)       { runMatrix(t) }
func TestPropertyAllAlgorithmsCorrect(t *testing.T)      { runMatrix(t) }
func TestEngineReuseMatchesOracle(t *testing.T)          { runMatrix(t) }
func TestGoalDirectedMatrix(t *testing.T)                { runMatrix(t) }
func TestGoalPersistentWorkers(t *testing.T)             { runMatrix(t) }
func TestHybridMatchesOracleEverywhere(t *testing.T)     { runMatrix(t) }
func TestHybridParentClaimFilter(t *testing.T)           { runMatrix(t) }
func TestHybridReorderCompose(t *testing.T)              { runMatrix(t) }
func TestParentsValidForAllAlgorithms(t *testing.T)      { runMatrix(t) }
func TestParentsWithScaleFreeAndClaim(t *testing.T)      { runMatrix(t) }
func TestReorderSemanticsPreserved(t *testing.T)         { runMatrix(t) }
func TestMSBFSMatchesOracle(t *testing.T)                { runMatrix(t) }
func TestMSBFSEngineReuse(t *testing.T)                  { runMatrix(t) }
func TestStressAllAlgorithmsHighContention(t *testing.T) { runMatrix(t) }
func TestStressDeepGraphManyLevels(t *testing.T)         { runMatrix(t) }
func TestStressManyOptionsMatrix(t *testing.T)           { runMatrix(t) }
func TestStressEveryVertexAsSource(t *testing.T)         { runMatrix(t) }
func TestStressDuplicateHeavyDenseGraph(t *testing.T)    { runMatrix(t) }
func TestStressRepeatedSameSeedIsSafe(t *testing.T)      { runMatrix(t) }
func TestOracleMatrixPairwise(t *testing.T)              { runMatrix(t) }
