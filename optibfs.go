package optibfs

import (
	"context"
	"fmt"
	"io"

	"optibfs/internal/analysis"
	"optibfs/internal/baseline1"
	"optibfs/internal/baseline2"
	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/obs"
	"optibfs/internal/reorder"
	"optibfs/internal/stats"
)

// Graph is a directed graph in compressed-sparse-row form. See
// NewRMAT, NewPowerLaw, NewLayered, FromEdges, and the Read* loaders
// for constructors.
type Graph = graph.CSR

// Edge is one directed edge for FromEdges.
type Edge = graph.Edge

// Options configures a parallel BFS run; the zero value selects
// sensible defaults (GOMAXPROCS workers, adaptive segments, one pool).
type Options = core.Options

// Result reports distances, level count, reach, duplicate work, and
// per-worker instrumentation counters of a BFS run.
type Result = core.Result

// Counters is the per-worker instrumentation bundle (steal taxonomy,
// lock usage, atomic RMW count, work volume).
type Counters = stats.Counters

// Event is one recorded dispatch event (see Options.TraceCapacity).
type Event = core.Event

// EventKind classifies trace events.
type EventKind = core.EventKind

// LevelStat is one entry of a run's per-level timeline (see
// Options.LevelTimeline): frontier size, pops, duplicates, discoveries,
// edges scanned, dispatch activity, and wall time for one BFS level.
type LevelStat = core.LevelStat

// TraceMeta labels a WriteChromeTrace export.
type TraceMeta = obs.TraceMeta

// Trace event kinds (see the core package for semantics).
const (
	EventFetch             = core.EventFetch
	EventStealOK           = core.EventStealOK
	EventStealVictimLocked = core.EventStealVictimLocked
	EventStealVictimIdle   = core.EventStealVictimIdle
	EventStealTooSmall     = core.EventStealTooSmall
	EventStealStale        = core.EventStealStale
	EventStealInvalid      = core.EventStealInvalid
)

// Unreached marks unreachable vertices in Result.Dist.
const Unreached = graph.Unreached

// ReorderMode selects the vertex relabeling Options.Reorder applies at
// engine construction; results are always mapped back to original ids.
type ReorderMode = core.ReorderMode

// Reorder modes for Options.Reorder.
const (
	// ReorderNone runs on the graph as given (the default).
	ReorderNone = core.ReorderNone
	// ReorderDegree packs high-degree vertices first (hub packing).
	ReorderDegree = core.ReorderDegree
	// ReorderBFS renumbers vertices in BFS visitation order.
	ReorderBFS = core.ReorderBFS
)

// Goal bounds a goal-directed search: stop once a target vertex's level
// is fully settled (Target, a vertex id + 1; see GoalTo) and/or once a
// depth bound is reached (MaxDepth levels). The zero Goal means run to
// exhaustion. Termination happens at the level barrier the goal closes,
// so the partial Result is exact for every closed level and
// Result.Truncated reports that deeper levels were skipped.
type Goal = core.Goal

// GoalTo returns a Goal that stops once vertex v's BFS level is settled.
func GoalTo(v int32) Goal { return core.GoalTo(v) }

// ChaosHook observes the lockfree protocols' racy points (see
// Options.Chaos). Implementations may delay or yield to provoke rare
// interleavings; the internal/chaos package provides a seeded
// fault-injecting implementation for the bfssoak harness.
type ChaosHook = core.ChaosHook

// ChaosPoint identifies one instrumented racy point in the lockfree
// protocols.
type ChaosPoint = core.ChaosPoint

// The instrumented chaos points (see the core package for the exact
// protocol step each one precedes).
const (
	// ChaosStealPublish fires before a thief publishes a stolen
	// segment into its own descriptor.
	ChaosStealPublish = core.ChaosStealPublish
	// ChaosSlotZero fires before a worker zeroes a queue slot it
	// popped (the zero-on-read duplicate suppression).
	ChaosSlotZero = core.ChaosSlotZero
	// ChaosDrainAdvance fires before a worker advances its own
	// descriptor front past drained slots.
	ChaosDrainAdvance = core.ChaosDrainAdvance
	// ChaosFrontStore fires before a decentralized fetch publishes a
	// new queue front.
	ChaosFrontStore = core.ChaosFrontStore
	// ChaosPoolStore fires before a decentralized fetch publishes its
	// next-pool rotation.
	ChaosPoolStore = core.ChaosPoolStore
	// ChaosBlockFlush fires between copying a publication block into
	// the shared out-queue and the atomic tail store that makes it
	// visible (see Options.PublishBlock).
	ChaosBlockFlush = core.ChaosBlockFlush
	// ChaosPhase2Advance fires between the optimistic load and store
	// of the phase-2 dispatch cursor.
	ChaosPhase2Advance = core.ChaosPhase2Advance
	// ChaosStall fires once per dispatch boundary on every worker; a
	// hook that sleeps or panics here exercises the stall watchdog and
	// the panic-isolation layer.
	ChaosStall = core.ChaosStall
)

// WorkerPanicError reports a panic recovered inside a worker
// goroutine: the run is aborted, peers are woken, and the error
// carries the worker id, algorithm, level, panic value, and stack.
// Match it with errors.As; the partial Result alongside it records
// progress up to the abort.
type WorkerPanicError = core.WorkerPanicError

// StallError reports that the watchdog observed no heartbeat progress
// for Options.StallTimeout and aborted the run. Match it with
// errors.As; the engine that produced it remains reusable.
type StallError = core.StallError

// ErrPoisoned is returned (wrapped) by Engine runs after a worker
// panic poisoned the engine's barrier state; match with errors.Is and
// discard the engine.
var ErrPoisoned = core.ErrPoisoned

// Algorithm names a BFS variant. The paper's own algorithms use their
// Table II acronyms; the comparison systems use Baseline1/Baseline2
// prefixes.
type Algorithm string

// The paper's algorithms (Table II).
const (
	// Serial is sbfs, the serial array-queue baseline.
	Serial Algorithm = Algorithm(core.Serial)
	// BFSC is centralized-queue BFS with a global lock.
	BFSC Algorithm = Algorithm(core.BFSC)
	// BFSCL is the lockfree optimistic centralized-queue BFS.
	BFSCL Algorithm = Algorithm(core.BFSCL)
	// BFSDL is the lockfree decentralized (queue pools) BFS.
	BFSDL Algorithm = Algorithm(core.BFSDL)
	// BFSW is randomized work-stealing BFS with per-worker locks.
	BFSW Algorithm = Algorithm(core.BFSW)
	// BFSWL is the lockfree optimistic work-stealing BFS.
	BFSWL Algorithm = Algorithm(core.BFSWL)
	// BFSWS is work-stealing BFS with the scale-free two-phase
	// optimization, using locks.
	BFSWS Algorithm = Algorithm(core.BFSWS)
	// BFSWSL is the paper's flagship: lockfree work-stealing with the
	// scale-free two-phase optimization.
	BFSWSL Algorithm = Algorithm(core.BFSWSL)
	// BFSEL is the edge-partitioned lockfree variant the paper sketches
	// as future work (§IV-D): dynamic load balancing over evenly
	// divided edges instead of vertices, so one high-degree hotspot is
	// spread across many dispatch segments automatically.
	BFSEL Algorithm = Algorithm(core.BFSEL)
)

// The comparison systems.
const (
	// Baseline1 is Leiserson & Schardl's PBFS over reducer bags.
	Baseline1 Algorithm = "Baseline1"
	// Baseline2QueueCAS is Hong et al.'s shared-queue BFS (fetch-add
	// dispatch, CAS visited bitmap).
	Baseline2QueueCAS Algorithm = "Baseline2:queue+cas"
	// Baseline2Read is Hong et al.'s read-based (queue-less) BFS.
	Baseline2Read Algorithm = "Baseline2:read"
	// Baseline2LocalQueue is Hong et al.'s local-queue BFS without a
	// visited bitmap.
	Baseline2LocalQueue Algorithm = "Baseline2:localq"
	// Baseline2LocalQueueBitmap is Hong et al.'s strongest CPU variant
	// ("Local queue + read + bitmap").
	Baseline2LocalQueueBitmap Algorithm = "Baseline2:localq+bitmap"
	// Baseline2Hybrid is Hong et al.'s per-level strategy picker.
	Baseline2Hybrid Algorithm = "Baseline2:hybrid"
	// DirectionOptimizing is Beamer et al.'s top-down/bottom-up hybrid
	// (SC 2012, the paper's prior-work ref [5]): BFS_WSL with the
	// in-core Options.Hybrid switch on, so it keeps the paper's
	// no-lock, no-RMW discipline and every core engine feature.
	DirectionOptimizing Algorithm = "DirectionOptimizing"
)

// Algorithms lists every supported algorithm in presentation order.
var Algorithms = []Algorithm{
	Serial, BFSC, BFSCL, BFSDL, BFSW, BFSWL, BFSWS, BFSWSL, BFSEL,
	Baseline1, Baseline2QueueCAS, Baseline2Read, Baseline2LocalQueue,
	Baseline2LocalQueueBitmap, Baseline2Hybrid, DirectionOptimizing,
}

// Lockfree reports whether the algorithm's dynamic load balancer uses
// neither locks nor atomic read-modify-write instructions.
func (a Algorithm) Lockfree() bool {
	v, _, ok := coreRoute(a, Options{})
	return ok && v.Lockfree()
}

// coreRoute maps a public algorithm onto the core variant that runs it
// and the options it runs with: the paper's algorithms run as
// themselves, DirectionOptimizing is BFS_WSL with the in-core Hybrid
// switch on. ok is false for the comparison runtimes (and unknown
// names), which have no core engine.
func coreRoute(a Algorithm, o Options) (v core.Algorithm, _ Options, ok bool) {
	switch a {
	case Serial, BFSC, BFSCL, BFSDL, BFSW, BFSWL, BFSWS, BFSWSL, BFSEL:
		return core.Algorithm(a), o, true
	case DirectionOptimizing:
		o.Hybrid = true
		return core.BFSWSL, o, true
	}
	return "", o, false
}

// BFS runs the selected algorithm on g from source src. A nil opt is
// treated as the zero Options.
func BFS(g *Graph, src int32, algo Algorithm, opt *Options) (*Result, error) {
	return BFSContext(context.Background(), g, src, algo, opt)
}

// BFSContext is BFS with cancellation. The paper's algorithms check
// the context at every level boundary (cancellation latency is the
// level in flight); the baseline runtimes do not support cancellation
// and return an error if ctx is already done when they start.
func BFSContext(ctx context.Context, g *Graph, src int32, algo Algorithm, opt *Options) (*Result, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	if v, co, ok := coreRoute(algo, o); ok {
		return core.RunContext(ctx, g, src, v, co)
	}
	run := baselineRun(algo)
	if run == nil {
		return nil, fmt.Errorf("optibfs: unknown algorithm %q", algo)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return run(g, src, o)
}

// baselineRun returns the one-shot runtime of a comparison system, or
// nil if a is not one.
func baselineRun(a Algorithm) func(*Graph, int32, Options) (*Result, error) {
	variant := func(v baseline2.Variant) func(*Graph, int32, Options) (*Result, error) {
		return func(g *Graph, src int32, o Options) (*Result, error) {
			return baseline2.Run(g, src, v, o)
		}
	}
	switch a {
	case Baseline1:
		return baseline1.Run
	case Baseline2QueueCAS:
		return variant(baseline2.QueueCAS)
	case Baseline2Read:
		return variant(baseline2.ReadArray)
	case Baseline2LocalQueue:
		return variant(baseline2.LocalQueue)
	case Baseline2LocalQueueBitmap:
		return variant(baseline2.LocalQueueBitmap)
	case Baseline2Hybrid:
		return variant(baseline2.Hybrid)
	}
	return nil
}

// WriteChromeTrace renders a run's dispatch events (Options.
// TraceCapacity) and level timeline (Options.LevelTimeline) as Chrome
// trace_event JSON, loadable in Perfetto or chrome://tracing. It
// errors if the run recorded no events.
func WriteChromeTrace(w io.Writer, meta TraceMeta, res *Result) error {
	return obs.WriteChromeTrace(w, meta, res)
}

// SerialBFS runs the reference serial BFS (convenience wrapper).
func SerialBFS(g *Graph, src int32) []int32 {
	return graph.ReferenceBFS(g, src)
}

// Validate checks a distance array against the graph structure,
// Graph500-style. Use it to verify any BFS output.
func Validate(g *Graph, src int32, dist []int32) error {
	return graph.ValidateDistances(g, src, dist)
}

// ValidateParents checks a BFS parent array (from Options.TrackParents)
// against the distances, completing the Graph500-style validation.
func ValidateParents(g *Graph, src int32, dist, parent []int32) error {
	return graph.ValidateParents(g, src, dist, parent)
}

// PathTo reconstructs the source-to-v path from a parent array
// (source-first); nil if v was not reached.
func PathTo(parent []int32, v int32) []int32 {
	return graph.PathTo(parent, v)
}

// FromEdges builds a graph with n vertices from a directed edge list.
func FromEdges(n int32, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges, graph.BuildOptions{})
}

// FromEdgesUndirected builds the symmetrized (undirected) graph.
func FromEdgesUndirected(n int32, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges, graph.BuildOptions{Symmetrize: true})
}

// NewRMAT generates a Graph500-style RMAT graph (a=.45, b=.15, c=.15,
// the parameters of the paper's synthetic graphs) with n vertices and
// m edges, deterministically from seed.
func NewRMAT(n int32, m int64, seed uint64) (*Graph, error) {
	return gen.Graph500RMAT(n, m, seed, gen.Options{})
}

// NewPowerLaw generates a scale-free (Chung–Lu) graph with power-law
// exponent gamma (2 < gamma < 3 matches real-world networks, §IV).
func NewPowerLaw(n int32, m int64, gamma float64, seed uint64) (*Graph, error) {
	return gen.ChungLu(n, m, gamma, seed, gen.Options{})
}

// NewLayered generates a connected graph whose BFS from vertex 0
// explores `layers` levels with near-uniform frontiers — a controlled
// stand-in for mesh/circuit graphs of a given diameter.
func NewLayered(n int32, m int64, layers int32, seed uint64) (*Graph, error) {
	return gen.LayeredRandom(n, m, layers, seed, gen.Options{})
}

// NewRandom generates a uniform G(n, m) directed graph.
func NewRandom(n int32, m int64, seed uint64) (*Graph, error) {
	return gen.ErdosRenyi(n, m, seed, gen.Options{})
}

// NewBarabasiAlbert generates an undirected scale-free graph by
// preferential attachment (degree exponent ≈ 3); each new vertex
// attaches `attach` edges to degree-proportional targets.
func NewBarabasiAlbert(n int32, attach int, seed uint64) (*Graph, error) {
	return gen.BarabasiAlbert(n, attach, seed, gen.Options{})
}

// NewSmallWorld generates a Watts–Strogatz small-world graph: a ring
// lattice of degree k with each edge rewired with probability beta.
func NewSmallWorld(n int32, k int, beta float64, seed uint64) (*Graph, error) {
	return gen.WattsStrogatz(n, k, beta, seed, gen.Options{})
}

// NewGrid generates an undirected rows x cols lattice.
func NewGrid(rows, cols int32) (*Graph, error) {
	return gen.Grid2D(rows, cols, false)
}

// ConnectedComponents labels the weakly-connected components of g
// using repeated parallel BFS, returning each vertex's component id
// and the component sizes.
func ConnectedComponents(g *Graph, opt *Options) (labels []int32, sizes []int64, err error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	return analysis.Components(g, o)
}

// EstimateDiameter lower-bounds the diameter of src's component with
// the classic double-sweep heuristic (two parallel BFS runs).
func EstimateDiameter(g *Graph, src int32, opt *Options) (int32, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	return analysis.DoubleSweep(g, src, o)
}

// Betweenness computes Brandes betweenness centrality restricted to
// the given sources (exact when sources covers every vertex, a sample
// estimate otherwise), with one parallel BFS per source.
func Betweenness(g *Graph, sources []int32, opt *Options) ([]float64, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	return analysis.Betweenness(g, sources, o)
}

// ReorderByBFS relabels g in BFS visitation order from src, improving
// the traversal locality of subsequent searches. It returns the new
// graph and the permutation (newID = perm[oldID]).
func ReorderByBFS(g *Graph, src int32) (*Graph, []int32, error) {
	perm, err := reorder.ByBFS(g, src)
	if err != nil {
		return nil, nil, err
	}
	g2, err := reorder.Apply(g, perm)
	if err != nil {
		return nil, nil, err
	}
	return g2, perm, nil
}

// ReorderByDegree relabels g with high-degree vertices first (hub
// packing). It returns the new graph and the permutation.
func ReorderByDegree(g *Graph) (*Graph, []int32, error) {
	perm := reorder.ByDegreeDescending(g)
	g2, err := reorder.Apply(g, perm)
	if err != nil {
		return nil, nil, err
	}
	return g2, perm, nil
}

// ReadMatrixMarket loads a MatrixMarket coordinate file (the Florida
// Sparse Matrix Collection format the paper's graphs come in).
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return mmio.ReadMatrixMarket(r) }

// WriteMatrixMarket writes g in MatrixMarket coordinate format.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return mmio.WriteMatrixMarket(w, g) }

// ReadEdgeList loads whitespace-separated "u v" pairs (0-based).
func ReadEdgeList(r io.Reader) (*Graph, error) { return mmio.ReadEdgeList(r) }

// WriteEdgeList writes g as "u v" lines.
func WriteEdgeList(w io.Writer, g *Graph) error { return mmio.WriteEdgeList(w, g) }

// ReadBinary loads the compact binary CSR format.
func ReadBinary(r io.Reader) (*Graph, error) { return mmio.ReadBinary(r) }

// WriteBinary writes the compact binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error { return mmio.WriteBinary(w, g) }
