package harness

import (
	"fmt"
	"strings"

	"optibfs"
	"optibfs/internal/core"
	"optibfs/internal/costmodel"
	"optibfs/internal/graph"
)

// AlgoSpec identifies one algorithm column/row of the experiments —
// the paper's own variants plus both baselines under one interface.
// It runs through the public API, so the harness dispatches exactly
// as library callers do.
type AlgoSpec struct {
	// Name is the display name used in tables.
	Name string

	algo optibfs.Algorithm
}

// algoSpec names an algorithm by its own identifier.
func algoSpec(a optibfs.Algorithm) AlgoSpec {
	return AlgoSpec{Name: string(a), algo: a}
}

// TableAlgos is the algorithm set of Table V: the paper's variants,
// Baseline1 (PBFS/bag), and the two strongest Baseline2 configurations.
var TableAlgos = []AlgoSpec{
	algoSpec(optibfs.Serial),
	algoSpec(optibfs.BFSC),
	algoSpec(optibfs.BFSCL),
	algoSpec(optibfs.BFSDL),
	algoSpec(optibfs.BFSW),
	algoSpec(optibfs.BFSWL),
	algoSpec(optibfs.BFSWS),
	algoSpec(optibfs.BFSWSL),
	{Name: "Baseline1(bag)", algo: optibfs.Baseline1},
	{Name: "Baseline2(lq+read+bmp)", algo: optibfs.Baseline2LocalQueueBitmap},
	{Name: "Baseline2(queue+cas)", algo: optibfs.Baseline2QueueCAS},
}

// LockfreeAlgos is the Figure 2 set: the paper plots the scalability of
// its lockfree variants only.
var LockfreeAlgos = []AlgoSpec{
	algoSpec(optibfs.BFSCL),
	algoSpec(optibfs.BFSDL),
	algoSpec(optibfs.BFSWSL),
}

// ExtensionAlgos are this repository's implementations of the paper's
// future-work sketches (§IV-D); they are benchmarked as ablations, not
// in the paper-faithful tables.
var ExtensionAlgos = []AlgoSpec{
	algoSpec(optibfs.BFSEL),
	algoSpec(optibfs.DirectionOptimizing),
}

// AlgoByName resolves a display name (for CLI flags).
func AlgoByName(name string) (AlgoSpec, error) {
	for _, a := range TableAlgos {
		if a.Name == name {
			return a, nil
		}
	}
	for _, a := range ExtensionAlgos {
		if a.Name == name {
			return a, nil
		}
	}
	return AlgoSpec{}, fmt.Errorf("harness: unknown algorithm %q", name)
}

// Run executes the algorithm on g from src (one-shot; multi-source
// measurements should go through NewRunner so per-run state is pooled).
func (a AlgoSpec) Run(g *graph.CSR, src int32, opt core.Options) (*core.Result, error) {
	return optibfs.BFS(g, src, a.algo, a.options(opt))
}

// NewRunner builds a reusable engine for the spec over g: the paper's
// variants and DirectionOptimizing run on pooled engines, the
// baselines fall back to one-shot dispatch per run (see
// optibfs.Engine). Options.Reorder reaches the core engines only; the
// Baseline1/Baseline2 runtimes traverse the graph as given.
func (a AlgoSpec) NewRunner(g *graph.CSR, opt core.Options) (*optibfs.Engine, error) {
	return optibfs.NewEngine(g, a.algo, a.options(opt))
}

// options adapts one sweep-wide option set to the spec: the serial
// baseline drops the parallel-only Hybrid knob, so one option set can
// sweep a whole algorithm table. The public BFS(Serial, Hybrid) still
// refuses the combination.
func (a AlgoSpec) options(opt core.Options) *core.Options {
	if a.IsSerial() {
		opt.Hybrid = false
	}
	return &opt
}

// Shape returns the cost shape the model should assume.
func (a AlgoSpec) Shape() costmodel.Shape {
	if a.algo == optibfs.Baseline1 {
		return costmodel.ShapeBag
	}
	return costmodel.ShapeOf(core.Algorithm(a.algo))
}

// IsSerial reports whether the spec is the serial baseline (always run
// with one worker regardless of the experiment's p).
func (a AlgoSpec) IsSerial() bool {
	return a.algo == optibfs.Serial
}

// SupportsGoals reports whether the spec's runtime honors a bounded
// core.Goal passed to Engine.RunGoal: the paper's variants, serial
// baseline included, and DirectionOptimizing do; the Baseline1/Baseline2
// comparison runtimes (the Baseline-prefixed algorithm names) have no
// goal machinery, and their engines refuse any goal but the zero one.
func (a AlgoSpec) SupportsGoals() bool {
	return !strings.HasPrefix(string(a.algo), "Baseline")
}
