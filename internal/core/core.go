// Package core implements the paper's parallel BFS algorithms:
// level-synchronous breadth-first searches with dynamic load balancing
// over simple array queues, in locked and lockfree (optimistic) forms.
//
// Naming follows the paper's Table II:
//
//	sbfs    serial BFS
//	BFS_C   centralized queue, global lock
//	BFS_CL  centralized queue, lockfree optimistic
//	BFS_DL  decentralized queue pools, lockfree optimistic
//	BFS_W   randomized work stealing, per-thread locks
//	BFS_WL  randomized work stealing, lockfree optimistic
//	BFS_WS  work stealing + scale-free two-phase, locks
//	BFS_WSL work stealing + scale-free two-phase, lockfree
//
// The lockfree variants contain no mutexes and no atomic
// read-modify-write instructions: shared queue indices and queue slots
// are accessed with sync/atomic Load/Store only, which compile to plain
// loads and stores (no bus-locked operations) on mainstream
// architectures, while keeping the deliberate races well-defined under
// the Go memory model. Duplicate exploration caused by stale or
// overlapping segments is benign for BFS (every racing write to dist
// stores the same level value), which is the paper's central
// observation.
//
// Every parallel engine (Engine, MSEngine) runs its levels on a crew
// (crew.go): Workers goroutines per engine, released one phase at a
// time by the caller's goroutine, stopped by Close. Every engine runs
// over the one shared CSR it was built on.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"optibfs/internal/graph"
	"optibfs/internal/stats"
)

// Algorithm selects a BFS variant by its paper acronym.
type Algorithm string

// Algorithms, named per the paper's Table II.
const (
	Serial Algorithm = "sbfs"
	BFSC   Algorithm = "BFS_C"
	BFSCL  Algorithm = "BFS_CL"
	BFSDL  Algorithm = "BFS_DL"
	BFSW   Algorithm = "BFS_W"
	BFSWL  Algorithm = "BFS_WL"
	BFSWS  Algorithm = "BFS_WS"
	BFSWSL Algorithm = "BFS_WSL"
	// BFSEL is the edge-partitioned lockfree variant the paper
	// proposes as future work in §IV-D: dynamic load balancing over
	// evenly divided edges rather than vertices.
	BFSEL Algorithm = "BFS_EL"
)

// Algorithms lists every variant in presentation order.
var Algorithms = []Algorithm{Serial, BFSC, BFSCL, BFSDL, BFSW, BFSWL, BFSWS, BFSWSL, BFSEL}

// Lockfree reports whether the algorithm avoids locks and atomic RMW.
func (a Algorithm) Lockfree() bool {
	switch a {
	case BFSCL, BFSDL, BFSWL, BFSWSL, BFSEL:
		return true
	}
	return false
}

// ReorderMode selects an optional vertex relabeling applied by the
// engine at construction (Options.Reorder). The engine runs on the
// relabeled CSR for memory locality and maps Result.Dist/Parent back
// through the inverse permutation, so callers always see original
// vertex ids — sources, validation, and golden tests are unaffected.
type ReorderMode string

// Reorder modes. The zero value runs on the graph as given.
const (
	// ReorderNone applies no relabeling (the default).
	ReorderNone ReorderMode = ""
	// ReorderDegree packs high-degree vertices first (hub packing:
	// the hottest dist/epoch entries share cache lines). Interacts
	// with BFS_WS/BFS_WSL scale-free dispatch: hot-vertex *detection*
	// is degree-based and therefore invariant under relabeling, but
	// after degree ordering the deferred hubs occupy adjacent ids, so
	// their phase-2 chunk scans walk nearly contiguous CSR regions.
	ReorderDegree ReorderMode = "degree"
	// ReorderBFS renumbers vertices in BFS visitation order from
	// vertex 0, making frontier walks near-sequential memory walks.
	ReorderBFS ReorderMode = "bfs"
)

// Options configures a parallel BFS run. The zero value is usable:
// every field has a documented default applied by withDefaults.
type Options struct {
	// Workers is the number of worker goroutines p in the engine's
	// crew. Default: GOMAXPROCS.
	Workers int
	// SegmentSize fixes the centralized-queue dispatch segment length s.
	// 0 selects the paper's adaptive sizing (recomputed per dispatch
	// from the remaining work and worker count).
	SegmentSize int
	// Pools is j, the number of centralized queue pools for BFS_DL,
	// clamped to [1, Workers]. Default 1 (the configuration the paper
	// benchmarked; footnote 6).
	Pools int
	// HighDegreeThreshold routes vertices with out-degree >= threshold
	// to the scale-free second phase in BFS_WS/BFS_WSL. 0 selects
	// max(64, 4·avgDegree).
	HighDegreeThreshold int64
	// Phase2Stealing enables the paper's alternative BFS_WSL phase-2
	// variant in which adjacency chunks of hot vertices are dispatched
	// dynamically rather than split statically (§IV-B3; usually worse).
	Phase2Stealing bool
	// LockBatch is how many vertices a locked work-stealing victim
	// (BFS_W / BFS_WS) reserves from its own segment per lock
	// acquisition. Batching keeps the lock out of the per-vertex path
	// (the paper's locked variants lose to lockfree by percents, not
	// multiples). Default 16; 1 degenerates to per-pop locking.
	LockBatch int
	// PublishBlock is the per-worker discovery-block size b for batched
	// frontier publication: workers accumulate discovered vertices in a
	// private block and publish them to their shared next-level queue
	// with one copy plus one index store per block, instead of one
	// shared store per vertex. 1 degenerates to per-vertex publication
	// (the pre-batching behavior, kept as the ablation baseline);
	// default 128. The level barrier flushes partial blocks, so block
	// residency never delays a vertex past its level.
	PublishBlock int
	// Reorder applies a vertex relabeling at engine construction (see
	// ReorderMode). Results are mapped back to original ids through the
	// inverse permutation. Only the core engines honor it (the public
	// DirectionOptimizing name included: it runs BFS_WSL with Hybrid);
	// the Baseline1/Baseline2 comparison runtimes ignore it.
	Reorder ReorderMode
	// ParentClaim enables the §IV-D duplicate-exploration filter:
	// discoverers record a claim for each vertex with an arbitrary
	// concurrent write, and only the claiming queue's copy is explored.
	ParentClaim bool
	// TraceCapacity, when positive, records up to this many dispatch
	// events (fetches, steal attempts with outcomes) per worker into
	// Result.Events for offline analysis. 0 disables tracing. Events
	// past the capacity are dropped and counted in Result.EventsDropped.
	TraceCapacity int
	// LevelTimeline records one LevelStat per BFS level into
	// Result.LevelStats: frontier size, per-level work and steal
	// deltas, and wall time, captured at the level barriers where the
	// happens-before edge already exists. Costs one counter sweep and
	// one clock read per level (never per vertex or edge); the
	// timeline storage is pooled, so warm engine runs stay
	// allocation-free. Ignored by the serial engine.
	LevelTimeline bool
	// TrackParents records a BFS parent for every reached vertex using
	// the arbitrary-concurrent-write discipline the paper cites from
	// Blelloch & Maggs (§IV-D): racing discoverers may each store their
	// own id, any one survives, and every survivor is a valid parent
	// because all racing writers are at the same level. Needed for
	// Graph500-style parent validation and path reconstruction.
	TrackParents bool
	// Seed drives victim and pool selection. Runs with the same seed
	// make the same random choices (thread interleaving still varies).
	Seed uint64
	// Sockets simulates a NUMA topology by partitioning workers into
	// socket groups; victim/pool selection prefers the local group with
	// probability SameSocketBias. Default 1 (no NUMA policy).
	Sockets int
	// SameSocketBias is the probability of restricting a steal attempt
	// to the local socket group when Sockets > 1. An explicit 0
	// disables the local preference entirely; negative values select
	// the default 0.9; values above 1 are clamped to 1.
	SameSocketBias float64
	// Shards is the retired owner-compute shard count. Only 0 and 1
	// are accepted — every engine runs one shared CSR — and any other
	// value makes NewEngine fail with an error naming the retirement.
	// The field stays only because the benchmark module still sets it;
	// it goes at the next benchmark change.
	Shards int
	// Hybrid enables in-core direction-optimizing traversal (Beamer,
	// Asanović & Patterson): at every level barrier the driver decides,
	// from the exact frontier counters it just committed, whether the
	// next level runs top-down through the family's queue machinery or
	// bottom-up over the cached transpose. Bottom-up levels keep the
	// frontier as a dense uint64 bitmap (plain stores — a redundantly
	// set bit is the same benign duplicate the protocol already
	// tolerates) and scan unvisited vertices over in-edges, writing only
	// vertex-owned state, so the kernel needs no locks and no atomic
	// RMW. Switching back top-down compacts the bitmap into the batched
	// queue publication path with an atomics-free per-worker prefix-sum
	// pass (Tithi, Fogel & Chowdhury 2022). The switch never sees
	// duplicate-inflated estimates: the decision inputs are
	// deduplicated at the barrier by construction. Not supported for
	// the Serial algorithm, which has no per-level parallel machinery
	// to switch; run a parallel variant with Workers: 1 instead.
	Hybrid bool
	// StallTimeout arms the per-run stall watchdog of every engine —
	// plain and fused (MSEngine): if no worker makes dispatch progress
	// (segment fetches, steal-drain publications, hot-vertex chunks)
	// for this long while a level's phase is running, the run
	// aborts with a *StallError and a partial Result. The window is
	// suspended while the driver holds the level barrier, so a long
	// single-threaded barrier step is never a stall. The window must
	// comfortably exceed one dispatch unit's legitimate duration —
	// serving deployments use seconds. 0 (the default) disables the
	// watchdog; runs then also lose the watchdog's mid-level
	// cancellation assist and notice ctx only at level boundaries.
	StallTimeout time.Duration

	// Chaos, when non-nil, receives a callback at each of the
	// optimistic protocols' instrumented racy points (see ChaosPoint)
	// so tests and the internal/chaos soak harness can provoke rare
	// interleavings deterministically. If the hook also implements
	// ChaosLevelAuditor it additionally receives the per-level
	// unconsumed-slot audit for the slot-zeroing (lockfree) variants.
	// Nil — the default — costs one predictable branch per
	// instrumented step.
	Chaos ChaosHook
}

// withDefaults returns a copy of o with defaults filled in.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.LockBatch <= 0 {
		o.LockBatch = 16
	}
	if o.PublishBlock <= 0 {
		o.PublishBlock = 128
	}
	if o.Pools <= 0 {
		o.Pools = 1
	}
	if o.Pools > o.Workers {
		o.Pools = o.Workers
	}
	if o.Sockets <= 0 {
		o.Sockets = 1
	}
	if o.Sockets > o.Workers {
		o.Sockets = o.Workers
	}
	// Only a negative bias means "unset": an explicit 0 must remain
	// configurable (it turns the local-socket preference off), and
	// out-of-range probabilities are clamped rather than fed to the
	// victim/pool pickers.
	if o.SameSocketBias < 0 {
		o.SameSocketBias = 0.9
	} else if o.SameSocketBias > 1 {
		o.SameSocketBias = 1
	}
	return o
}

// Goal is a per-run traversal bound, passed to every run as an
// argument (Engine.RunGoal, MSEngine.RunGoals, RunGoal) so one warm
// engine answers queries with different goals without rebuilding. The zero
// Goal bounds nothing and runs to frontier exhaustion.
//
// A targeted search terminates at the first level barrier after the
// target's distance commits. The barrier is already the run's one
// single-threaded point, so termination adds no locks and no atomic
// RMW: the driver reads the target's epoch stamp where the level's
// happens-before edge already exists. Level synchrony makes the partial
// Result exact — when the barrier after exploring level d-1 observes
// the target settled at distance d, every vertex at distance <= d has
// its final distance, and everything deeper reads Unreached. The Result
// is marked Truncated.
type Goal struct {
	// Target, when non-zero, holds dst+1 — the same vertex+1 sentinel
	// encoding the queue slots use, so the zero Goal stays unbounded
	// while vertex 0 remains a legal target (use GoalTo rather than
	// open-coding the +1).
	Target int32
	// MaxDepth, when positive, bounds the traversal to that many
	// levels: the run stops at the barrier where the completed-level
	// count reaches MaxDepth, settling every vertex at distance <=
	// MaxDepth (a k-hop neighborhood) and never scanning the edges of
	// the deepest rank. 0 is unbounded. Composes with Target: whichever
	// goal fires first terminates the run.
	MaxDepth int32
}

// GoalTo returns a Goal that terminates once dst's distance commits.
// A negative dst yields the unbounded zero Goal.
func GoalTo(dst int32) Goal {
	if dst < 0 {
		return Goal{}
	}
	return Goal{Target: dst + 1}
}

// TargetVertex decodes the goal's target vertex, or -1 when none.
func (g Goal) TargetVertex() int32 { return g.Target - 1 }

// Bounded reports whether the goal terminates anything at all.
func (g Goal) Bounded() bool { return g.Target != 0 || g.MaxDepth > 0 }

// Validate rejects a goal that names a vertex outside [0, n) or carries
// a negative (meaningless) encoding. The zero Goal is always valid.
func (g Goal) Validate(n int32) error {
	if g.Target < 0 {
		return fmt.Errorf("core: negative goal target encoding %d", g.Target)
	}
	if g.Target > n {
		return fmt.Errorf("core: goal target %d out of range [0,%d)", g.Target-1, n)
	}
	if g.MaxDepth < 0 {
		return fmt.Errorf("core: negative goal max depth %d", g.MaxDepth)
	}
	return nil
}

// maxStealFactor is c in the MAX_STEAL = c·p·log2(p) bound on
// consecutive failed steal attempts (and c·j·log2(j) pool retries for
// BFS_DL). The paper requires a small constant c > 1.
const maxStealFactor = 2

// maxSteal returns the MAX_STEAL bound c·k·log2(k) for k targets,
// at least 1.
func maxSteal(k int) int {
	if k <= 1 {
		return 1
	}
	v := maxStealFactor * float64(k) * math.Log2(float64(k))
	if v < 1 {
		return 1
	}
	return int(v)
}

// Result reports the outcome of one BFS run.
type Result struct {
	// Dist holds the BFS level of every vertex (graph.Unreached if not
	// reachable from the source).
	Dist []int32
	// Parent holds a valid BFS-tree parent per reached vertex (the
	// source's parent is itself; -1 elsewhere). Nil unless
	// Options.TrackParents was set.
	Parent []int32
	// LevelSizes[d] is the number of vertices at BFS level d — the
	// frontier-size profile that drives per-level strategy choices
	// (e.g. Baseline2's hybrid picker).
	LevelSizes []int64
	// Levels is the number of BFS levels explored (depth+1 of the tree).
	Levels int32
	// Truncated reports that the run terminated at a goal — the target
	// vertex's distance committed (Goal.Target) or the completed-level
	// count reached Goal.MaxDepth with frontier remaining — rather than
	// by frontier exhaustion. Every distance at a closed level
	// (< Levels, plus the target itself) is exact; deeper vertices read
	// Unreached except for the final frontier, which is settled at
	// distance == Levels but outside LevelSizes.
	Truncated bool
	// Reached is the number of vertices reached, including the source.
	Reached int64
	// EdgesTraversed is the number of edges incident to reached
	// vertices — the TEPS numerator.
	EdgesTraversed int64
	// Pops counts queue pops including duplicate explorations;
	// Pops - Reached is the duplicated work the optimistic scheme paid.
	Pops int64
	// Workers is the worker count the run actually used.
	Workers int
	// Pools is the number of shared centralized-queue pools the run
	// dispatched from (BFS_CL/BFS_DL only; 0 otherwise). The cost
	// model uses it to scale shared-descriptor contention.
	Pools int
	// Counters aggregates all workers' instrumentation.
	Counters stats.Counters
	// PerWorker holds each worker's counters (nil for sbfs).
	PerWorker []stats.PaddedCounters
	// Events holds each worker's recorded dispatch events when
	// Options.TraceCapacity was set (nil otherwise).
	Events [][]Event
	// EventsDropped counts, per worker, the dispatch events that did
	// not fit in the trace buffer (nil unless tracing was enabled).
	// A non-zero entry flags that worker's Events as truncated.
	EventsDropped []int64
	// LevelStats is the per-level run timeline when
	// Options.LevelTimeline was set (nil otherwise).
	LevelStats []LevelStat
}

// Duplicates returns the number of duplicate explorations. Under
// Options.Hybrid it can be negative: bottom-up levels settle vertices
// without popping queue entries, so Pops undercounts Reached by the
// number of bottom-up discoveries.
func (r *Result) Duplicates() int64 { return r.Pops - r.Reached }

// Run executes the selected algorithm on g from src. It is the
// one-shot path: a fresh Engine is built, run once, and released, so
// the returned Result owns freshly allocated arrays. Multi-source
// workloads should build an Engine once and reuse it.
func Run(g *graph.CSR, src int32, algo Algorithm, opt Options) (*Result, error) {
	return RunContext(context.Background(), g, src, algo, opt)
}

// RunContext is Run with cancellation: the search checks ctx at every
// level boundary (workers always finish the level in flight, so
// cancellation latency is one level; with Options.StallTimeout set the
// watchdog additionally interrupts mid-level) and returns ctx's error
// if it fires. Aborted runs — canceled, stalled, or panicked — return
// their partial Result alongside the error: Dist/Parent entries for
// every vertex settled so far plus the levels/reached/edges counters,
// so callers can report how far the search got. The per-level check
// costs one atomic load.
func RunContext(ctx context.Context, g *graph.CSR, src int32, algo Algorithm, opt Options) (*Result, error) {
	return RunGoal(ctx, g, src, algo, opt, Goal{})
}

// RunGoal is RunContext under a termination goal (see Engine.RunGoal),
// on the one-shot path: build an Engine, run once, release. Validation
// order (graph, then source, then algorithm) is preserved from the
// pre-engine implementation.
func RunGoal(ctx context.Context, g *graph.CSR, src int32, algo Algorithm, opt Options, goal Goal) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if src < 0 || src >= g.NumVertices() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", src, g.NumVertices())
	}
	e, err := NewEngine(g, algo, opt)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.RunGoal(ctx, src, goal)
}
