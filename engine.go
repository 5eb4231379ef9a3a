package optibfs

import (
	"context"
	"fmt"

	"optibfs/internal/core"
)

// Engine is a reusable BFS handle bound to one graph and algorithm.
// Where BFS allocates and zeroes per-run state (distance/parent/claim
// arrays, worker queues, counters) on every call, an Engine allocates
// it once and invalidates the visited set between runs with an O(1)
// epoch bump, so repeated Run calls on a warm engine allocate nothing.
// Multi-source workloads — Graph500-style averaging, diameter sweeps,
// betweenness sampling — should build one Engine per (graph, algorithm)
// and reuse it.
//
// Sharing contract: the Graph is read-only and may be shared by any
// number of engines and goroutines, but each Engine is single-caller —
// at most one Run in flight per engine. The returned Result aliases the
// engine's pooled arrays and is valid only until the engine's next run;
// callers that need a run's output beyond that must copy it.
//
// The paper's algorithms (DirectionOptimizing included) run on true
// pooled engines; the Baseline1/Baseline2 comparison runtimes have no
// engine layer, so an Engine over them transparently falls back to
// one-shot dispatch per Run (correct, just not amortized). Options.Shards > 1
// routes the paper's algorithms onto the sharded owner-compute backend
// (per-shard pooled engines with cross-shard frontier exchange); the
// default is the single-engine path.
type Engine struct {
	g      *Graph
	algo   Algorithm
	opt    Options
	ce     core.Backend
	closed bool
}

// NewEngine builds a reusable engine running algo on g. A nil opt is
// treated as the zero Options.
func NewEngine(g *Graph, algo Algorithm, opt *Options) (*Engine, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	e := &Engine{g: g, algo: algo, opt: o}
	if v, co, ok := coreRoute(algo, o); ok {
		ce, err := core.NewBackend(g, v, co)
		if err != nil {
			return nil, err
		}
		e.ce = ce
		return e, nil
	}
	if baselineRun(algo) == nil {
		return nil, fmt.Errorf("optibfs: unknown algorithm %q", algo)
	}
	if g == nil {
		return nil, fmt.Errorf("optibfs: nil graph")
	}
	return e, nil
}

// Run executes one search from src on the engine's pooled state. The
// Result is valid only until the engine's next run.
func (e *Engine) Run(src int32) (*Result, error) {
	return e.RunContext(context.Background(), src)
}

// RunContext is Run with cancellation, checked at every level boundary
// (the baseline fallbacks, as with BFSContext, only check ctx before
// starting).
func (e *Engine) RunContext(ctx context.Context, src int32) (*Result, error) {
	return e.RunGoal(ctx, src, Goal{})
}

// RunGoal executes one goal-directed search from src: the run stops at
// the level barrier that settles goal (target committed or depth bound
// reached), and the partial Result is exact for every closed level —
// distances at or below Result.Levels are final, deeper vertices are
// Unreached, Result.Truncated reports whether the goal fired. Goal
// checks happen only at level barriers, so the hot traversal path is
// identical to Run's. Every algorithm accepts the zero Goal; the
// baseline fallbacks have no goal machinery and refuse any other.
func (e *Engine) RunGoal(ctx context.Context, src int32, goal Goal) (*Result, error) {
	if e.closed {
		return nil, fmt.Errorf("optibfs: engine is closed")
	}
	if e.ce != nil {
		return e.ce.RunGoal(ctx, src, goal)
	}
	if goal != (Goal{}) {
		return nil, fmt.Errorf("optibfs: %s does not support goal-directed termination", e.algo)
	}
	return BFSContext(ctx, e.g, src, e.algo, &e.opt)
}

// RunMany runs one search per source, invoking visit (if non-nil)
// after each. The Result passed to visit aliases pooled state and is
// only valid for the duration of that call; visit returning a non-nil
// error stops the batch. This is the amortized path for Graph500-style
// multi-source measurement: across the batch only the first run pays
// allocation.
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

// Reseed re-derives the engine's RNG streams (victim and pool
// selection) from seed, exactly as a fresh engine with Options.Seed =
// seed would, without allocating.
func (e *Engine) Reseed(seed uint64) {
	e.opt.Seed = seed
	if e.ce != nil {
		e.ce.Reseed(seed)
	}
}

// Algorithm returns the engine's algorithm.
func (e *Engine) Algorithm() Algorithm { return e.algo }

// Graph returns the engine's bound graph.
func (e *Engine) Graph() *Graph { return e.g }

// Close releases the engine's resources: it stops the long-lived
// worker goroutines every parallel engine keeps from construction on,
// which an engine dropped without Close leaks, parked. Close is
// idempotent; a closed engine's Run returns an error.
func (e *Engine) Close() {
	e.closed = true
	if e.ce != nil {
		e.ce.Close()
	}
}
