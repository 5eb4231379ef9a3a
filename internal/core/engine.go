package core

import (
	"context"
	"fmt"

	"optibfs/internal/graph"
	"optibfs/internal/reorder"
	"optibfs/internal/rng"
)

// Engine is a reusable BFS handle bound to one graph and one resolved
// option set. It owns every piece of per-run state — the dist/parent/
// claim arrays, the p shared input queues and private output buffers,
// per-worker counters, trace buffers, and the RNG streams — plus the
// crew of worker goroutines that runs its levels, so that repeated Run
// calls on a warm engine allocate nothing. Close stops the crew.
//
// Sharing contract: the graph is immutable and may be shared by any
// number of engines and goroutines; an Engine itself is single-caller —
// run at most one search on it at a time (concurrent multi-source work
// uses one engine per goroutine over the shared graph).
//
// The *Result a run returns aliases the engine's pooled arrays and is
// valid only until the engine's next run; callers that keep distances
// across runs must copy them. The package-level Run/RunContext remain
// the one-shot path (a fresh engine per call), under which the old
// fresh-arrays behavior is preserved exactly.
type Engine struct {
	g      *graph.CSR
	algo   Algorithm
	opt    Options
	impl   engineImpl
	closed bool

	// Reorder machinery (Options.Reorder). The backend runs on rg, the
	// relabeled CSR; perm maps original ids to relabeled ones and inv
	// maps back. RunContext translates the source into the relabeled
	// space and remapResult translates Dist/Parent back out, so callers
	// — validation, golden tests, and all — only ever see original ids.
	// (Per-worker trace events and the timeline remain in relabeled
	// space; they describe the traversal the engine actually ran.)
	// rmDist/rmParent are the pooled remap buffers, allocated once so
	// warm reordered runs still allocate nothing.
	rg       *graph.CSR
	perm     []int32
	inv      []int32
	rmDist   []int32
	rmParent []int32
}

// engineImpl is the per-family backend behind an Engine. run returns
// the (possibly partial) Result together with the abort error, if any:
// *WorkerPanicError, *StallError, or ErrPoisoned. src and goal arrive
// validated and in relabeled space.
type engineImpl interface {
	run(ctx context.Context, src int32, goal Goal) (*Result, error)
	reseed(seed uint64)
	setChaos(h ChaosHook)
	close()
}

// binding wires one runner family's per-level machinery onto pooled
// state: setup/perLevel carry runLevels' contract (setup resets the
// family's shared dispatch state before each level; perLevel is one
// worker's share of the level, run with ids 0..p-1 on the engine's
// crew, returning when that worker is done), post (optional)
// annotates the Result after finish, and rngs/rngSalt expose the
// family's per-worker streams so Reseed can restart them in place.
// A binding is built once per engine; its closures are reused by every
// run so the steady state allocates nothing.
type binding struct {
	setup    func()
	perLevel func(id int)
	post     func(res *Result)
	rngs     []*rng.Xoshiro256
	rngSalt  uint64
}

// bindFunc builds a family's binding over a state; called once per
// engine by NewEngine.
type bindFunc func(st *state) binding

// NewEngine builds a reusable engine for algo over g. opt is resolved
// with the same defaults as Run; the engine's crew of Workers
// goroutines is spawned here and lives until Close.
func NewEngine(g *graph.CSR, algo Algorithm, opt Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	opt = opt.withDefaults()
	rg := g
	var perm, inv []int32
	switch opt.Reorder {
	case ReorderNone:
	case ReorderDegree, ReorderBFS:
		var p reorder.Permutation
		if opt.Reorder == ReorderDegree {
			p = reorder.ByDegreeDescending(g)
		} else {
			var err error
			if p, err = reorder.ByBFS(g, 0); err != nil {
				return nil, fmt.Errorf("core: reorder: %w", err)
			}
		}
		r, err := reorder.Apply(g, p)
		if err != nil {
			return nil, fmt.Errorf("core: reorder: %w", err)
		}
		rg, perm, inv = r, p, p.Inverse()
	default:
		return nil, fmt.Errorf("core: unknown reorder mode %q", opt.Reorder)
	}
	e := &Engine{g: g, algo: algo, opt: opt, rg: rg, perm: perm, inv: inv}
	if perm != nil {
		e.rmDist = make([]int32, g.NumVertices())
		if opt.TrackParents {
			e.rmParent = make([]int32, g.NumVertices())
		}
	}
	if algo == Serial {
		if opt.Hybrid {
			// Serial has no per-level binding to interpose the switch
			// on; the serial baseline stays a pure queue walk.
			return nil, fmt.Errorf("core: Hybrid requires a parallel variant, not %s", Serial)
		}
		e.impl = newSerialEngine(rg, opt)
		return e, nil
	}
	if algo == BFSCL {
		// BFS_CL is BFS_DL with a single pool (paper §IV-A3).
		opt.Pools = 1
	}
	bf, err := bindingFor(algo)
	if err != nil {
		return nil, err
	}
	e.impl = newParEngine(rg, opt, bf, algo)
	return e, nil
}

// bindingFor maps a parallel variant to its family's binding
// constructor — the one algorithm switch shared by Engine and
// ShardedEngine construction. Serial has no binding (it is not a
// per-level parallel family) and reports unknown like any other
// unrecognized name.
func bindingFor(algo Algorithm) (bindFunc, error) {
	switch algo {
	case BFSC:
		return bindCentralized, nil
	case BFSCL, BFSDL:
		return bindDecentralized, nil
	case BFSW:
		return bindWorkSteal(true, false), nil
	case BFSWL:
		return bindWorkSteal(false, false), nil
	case BFSWS:
		return bindWorkSteal(true, true), nil
	case BFSWSL:
		return bindWorkSteal(false, true), nil
	case BFSEL:
		return bindEdgePartitioned, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", algo)
	}
}

// Run executes one search from src, reusing the engine's pooled state.
// The returned Result is valid only until the engine's next run.
func (e *Engine) Run(src int32) (*Result, error) {
	return e.RunContext(context.Background(), src)
}

// RunContext is Run with cancellation: the search checks ctx at every
// level boundary (workers always finish the level in flight, so
// cancellation latency is one level; with Options.StallTimeout set the
// watchdog additionally interrupts mid-level) and returns ctx's error
// if it fires. A canceled or stalled run leaves the engine fully
// reusable — the next run invalidates the partial state via the epoch
// bump like any other — while a worker panic poisons it (see
// ErrPoisoned). Aborted runs return their partial Result alongside the
// error, with every settled distance plus the progress counters; like
// any other Result it aliases pooled state and is valid only until the
// engine's next run.
func (e *Engine) RunContext(ctx context.Context, src int32) (*Result, error) {
	return e.RunGoal(ctx, src, Goal{})
}

// RunGoal is RunContext with a termination goal: the search stops at
// the first level barrier where goal.Target's distance has committed or
// the completed-level count reaches goal.MaxDepth, and the partial
// Result (marked Truncated) is exact for every closed level. The goal
// is an argument of this run alone, so one warm engine serves queries
// with different goals without rebuilding. The zero Goal runs
// unbounded. Under Options.Reorder the target is translated into the
// relabeled space here, once per run, exactly as the source is.
func (e *Engine) RunGoal(ctx context.Context, src int32, goal Goal) (*Result, error) {
	if e.closed {
		return nil, fmt.Errorf("core: engine is closed")
	}
	if src < 0 || src >= e.g.NumVertices() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", src, e.g.NumVertices())
	}
	if err := goal.Validate(e.g.NumVertices()); err != nil {
		return nil, err
	}
	if e.perm != nil {
		src = e.perm[src]
		if goal.Target > 0 {
			goal.Target = e.perm[goal.Target-1] + 1
		}
	}
	res, err := e.impl.run(ctx, src, goal)
	if e.perm != nil && res != nil {
		e.remapResult(res)
	}
	if err != nil {
		return res, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return res, cerr
	}
	return res, nil
}

// remapResult translates a relabeled-space Result back into original
// vertex ids in the engine's pooled remap buffers: Dist is permuted
// (rmDist[old] = Dist[perm[old]]) and each Parent entry is additionally
// mapped through the inverse permutation, so parent pointers name
// original ids too. Aggregate fields (levels, counters, level sizes)
// are id-agnostic and pass through untouched.
func (e *Engine) remapResult(res *Result) {
	for old, newID := range e.perm {
		e.rmDist[old] = res.Dist[newID]
	}
	res.Dist = e.rmDist
	if res.Parent == nil {
		return
	}
	if e.rmParent == nil {
		// Parent tracking enabled by a path that bypassed TrackParents
		// at construction; allocate once and pool thereafter.
		e.rmParent = make([]int32, len(res.Parent))
	}
	for old, newID := range e.perm {
		if p := res.Parent[newID]; p >= 0 {
			e.rmParent[old] = e.inv[p]
		} else {
			e.rmParent[old] = -1
		}
	}
	res.Parent = e.rmParent
}

// Permutation returns the vertex relabeling installed by
// Options.Reorder (newID = perm[oldID]), or nil when the engine runs on
// the graph as given. The slice aliases engine state; do not modify.
func (e *Engine) Permutation() []int32 { return e.perm }

// RunMany executes one search per source in order, invoking visit (if
// non-nil) after each with the source's index and pooled Result. It
// stops at the first error, whether from a run or from visit. As with
// Run, each Result is valid only until the next search starts.
func (e *Engine) RunMany(sources []int32, visit func(i int, res *Result) error) error {
	for i, src := range sources {
		res, err := e.Run(src)
		if err != nil {
			return err
		}
		if visit != nil {
			if err := visit(i, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reseed restarts the engine's victim/pool-selection RNG streams as if
// the engine had been built with Options.Seed = seed, without
// reallocating them. It makes a run on a warm engine draw the same
// random choices as a one-shot Run with that seed.
func (e *Engine) Reseed(seed uint64) {
	e.opt.Seed = seed
	e.impl.reseed(seed)
}

// SetChaos installs (or, with nil, removes) a chaos hook between runs,
// replacing Options.Chaos for subsequent searches. Must not be called
// while a search is in flight.
func (e *Engine) SetChaos(h ChaosHook) {
	e.opt.Chaos = h
	e.impl.setChaos(h)
}

// Algorithm returns the variant this engine runs.
func (e *Engine) Algorithm() Algorithm { return e.algo }

// Graph returns the graph this engine is bound to.
func (e *Engine) Graph() *graph.CSR { return e.g }

// Options returns the engine's resolved options (defaults applied).
func (e *Engine) Options() Options { return e.opt }

// Close releases the engine: it stops the crew's worker goroutines
// (the serial baseline has none; an engine never closed leaks them,
// parked) and makes further runs fail. Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.impl.close()
}

// parEngine backs every parallel variant: pooled state (with its
// run-control), the family's binding, and the crew that runs its
// levels. phase is the binding's perLevel under workerLevel's recovery
// barrier, bound once so a level allocates nothing.
type parEngine struct {
	st    *state
	b     binding
	crew  *crew
	phase func(id int)
}

func newParEngine(g *graph.CSR, opt Options, bf bindFunc, algo Algorithm) *parEngine {
	st := allocState(g, opt, newRunCtl(algo, opt.Workers, opt.StallTimeout), 0)
	e := &parEngine{st: st}
	e.b = bf(st)
	if opt.Hybrid {
		e.b = wrapHybrid(st, e.b)
	}
	perLevel := e.b.perLevel
	e.phase = func(id int) { st.workerLevel(id, perLevel) }
	e.crew = newCrew(opt.Workers, algo, 0)
	return e
}

func (e *parEngine) run(ctx context.Context, src int32, goal Goal) (*Result, error) {
	st := e.st
	if st.ctl.poisoned {
		return nil, ErrPoisoned
	}
	st.goal = goal
	st.ctl.begin(ctx)
	st.beginRun(src)
	st.runLevels(e.crew, e.b.setup, e.phase)
	err := st.ctl.end()
	res := st.finish()
	if e.b.post != nil {
		e.b.post(res)
	}
	return res, err
}

func (e *parEngine) reseed(seed uint64) {
	e.st.opt.Seed = seed
	for i, r := range e.b.rngs {
		r.Seed(seed ^ rng.Mix64(uint64(i)+e.b.rngSalt))
	}
}

func (e *parEngine) setChaos(h ChaosHook) { e.st.setChaos(h) }

func (e *parEngine) close() { e.crew.close() }
