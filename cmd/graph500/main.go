// Command graph500 runs the Graph500-style BFS benchmark procedure the
// paper's introduction motivates ("BFS is being used as a graph
// benchmark application for ranking supercomputers"):
//
//  1. generate an RMAT graph at a given scale (2^scale vertices,
//     edgefactor × 2^scale edges, the paper's a=.45/b=.15/c=.15),
//  2. run BFS from `rounds` random non-isolated sources,
//  3. validate each search (distances structurally, parents if tracked),
//  4. report per-round TEPS and the harmonic mean TEPS.
//
// Usage:
//
//	graph500 -scale 18 -edgefactor 16 -algo BFS_WSL -rounds 16
//
// With -st the procedure measures goal-directed point-to-point search
// instead of TEPS: each round runs one validated full BFS to pick a
// mid-depth target, then times a full sweep and an s-t search
// (a core.GoalTo run argument) back to back in alternating
// order, reporting per-round and paired-median speedup plus the edge
// fraction the s-t search actually touched.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"optibfs"
	"optibfs/internal/core"
	"optibfs/internal/costmodel"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/harness"
	"optibfs/internal/stats"
)

func main() {
	var (
		scale      = flag.Int("scale", 16, "log2 of the vertex count")
		edgefactor = flag.Int64("edgefactor", 16, "edges per vertex")
		algoName   = flag.String("algo", "BFS_WSL", "algorithm to benchmark")
		rounds     = flag.Int("rounds", 16, "BFS rounds (Graph500 uses 64)")
		workers    = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 2, "generator/run seed")
		skipVal    = flag.Bool("skip-validation", false, "skip per-round validation")
		machine    = flag.String("machine", "Lonestar", "cost-model machine for modeled TEPS")
		reorderM   = flag.String("reorder", "", "vertex relabeling: degree|bfs (validation stays in original ids)")
		hybrid     = flag.Bool("hybrid", false, "direction-optimizing mode (bottom-up levels on large frontiers)")
		st         = flag.Bool("st", false, "paired s-t mode: time full BFS vs goal-directed search to a mid-depth target each round")
	)
	flag.Parse()
	if err := run(os.Stdout, *scale, *edgefactor, *algoName, *rounds, *workers, *seed, *skipVal, *machine, *reorderM, *hybrid, *st); err != nil {
		fmt.Fprintln(os.Stderr, "graph500:", err)
		os.Exit(1)
	}
}

func run(w *os.File, scale int, edgefactor int64, algoName string, rounds, workers int, seed uint64, skipVal bool, machineName, reorderMode string, hybrid bool, st bool) error {
	if scale < 1 || scale > 30 {
		return fmt.Errorf("scale %d out of [1,30]", scale)
	}
	if rounds < 1 {
		return fmt.Errorf("rounds %d < 1", rounds)
	}
	algo, err := harness.AlgoByName(algoName)
	if err != nil {
		return err
	}
	if st && !algo.SupportsGoals() {
		return fmt.Errorf("-st needs a goal-capable algorithm (the paper's or DirectionOptimizing); %s runs to exhaustion", algoName)
	}
	var machine costmodel.Machine
	switch machineName {
	case "Lonestar":
		machine = costmodel.Lonestar
	case "Trestles":
		machine = costmodel.Trestles
	case "Local":
		// Calibrate the cost constants on this host (microbenchmarks,
		// a few tens of ms) so modeled times describe this machine.
		machine = costmodel.Calibrate(0)
	default:
		return fmt.Errorf("unknown machine %q (Lonestar|Trestles|Local)", machineName)
	}

	n := int32(1) << scale
	m := edgefactor * int64(n)
	genStart := time.Now()
	g, err := gen.Graph500RMAT(n, m, seed, gen.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph500: scale=%d n=%d m=%d (generated in %.2fs)\n",
		scale, g.NumVertices(), g.NumEdges(), time.Since(genStart).Seconds())

	sources := harness.PickSources(g, rounds, seed^0x9e3779b9)
	opt := core.Options{
		Workers: workers, TrackParents: !skipVal,
		Reorder: core.ReorderMode(reorderMode), Hybrid: hybrid,
	}
	if hybrid {
		fmt.Fprintf(w, "hybrid: direction-optimizing (alpha/beta switched bottom-up levels)\n")
	}
	if opt.Reorder != core.ReorderNone {
		// The engine relabels internally; ValidateDistances and
		// ValidateParents below run against the ORIGINAL graph, proving
		// the relabeled searches semantics-preserving every round.
		fmt.Fprintf(w, "reorder: %s (validating in original ids)\n", opt.Reorder)
	}

	// One engine serves every round: per-round state is pooled, so the
	// timed region measures traversal, not allocation (the Graph500
	// procedure times the searches only).
	runner, err := algo.NewRunner(g, opt)
	if err != nil {
		return err
	}
	defer runner.Close()
	if st {
		return runST(w, g, runner, sources, seed, skipVal)
	}
	var harmonicAcc, modeledHarmonicAcc float64
	valid := 0
	for i, src := range sources {
		runner.Reseed(seed + uint64(i) + 1)
		start := time.Now()
		res, err := runner.Run(src)
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		measuredTEPS := stats.TEPS(res.EdgesTraversed, elapsed)
		modeledTEPS := stats.TEPS(res.EdgesTraversed, costmodel.Modeled(machine, algo.Shape(), res))

		status := "skipped"
		if !skipVal {
			if err := graph.ValidateDistances(g, src, res.Dist); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
			if res.Parent != nil {
				if err := graph.ValidateParents(g, src, res.Dist, res.Parent); err != nil {
					return fmt.Errorf("round %d: %w", i, err)
				}
			}
			status = "ok"
			valid++
		}
		fmt.Fprintf(w, "round %2d: src=%-9d reached=%-9d levels=%-3d teps=%s modeled=%s validation=%s\n",
			i, src, res.Reached, res.Levels, fmtTEPS(measuredTEPS), fmtTEPS(modeledTEPS), status)
		if measuredTEPS > 0 {
			harmonicAcc += 1 / measuredTEPS
		}
		if modeledTEPS > 0 {
			modeledHarmonicAcc += 1 / modeledTEPS
		}
	}
	k := float64(len(sources))
	fmt.Fprintf(w, "\nharmonic-mean TEPS: measured=%s modeled(%s)=%s over %d rounds\n",
		fmtTEPS(harmonic(k, harmonicAcc)), machine.Name, fmtTEPS(harmonic(k, modeledHarmonicAcc)), len(sources))
	if !skipVal {
		fmt.Fprintf(w, "validation: %d/%d rounds passed\n", valid, len(sources))
	}
	return nil
}

// runST is the -st procedure: per round, one validated full BFS picks a
// target at roughly half the eccentricity, then a full sweep and a
// goal-directed search to that target are timed back to back (order
// alternating by round, both reseeded identically, same pooled engine),
// so each round yields one paired full/s-t ratio. The headline number is
// the median of those per-round ratios — pairing makes it immune to
// slow drift (thermal, page cache) across the run.
func runST(w *os.File, g *graph.CSR, runner *optibfs.Engine, sources []int32, seed uint64, skipVal bool) error {
	ctx := context.Background()
	var ratios, fracs, fullMS, stMS []float64
	for i, src := range sources {
		roundSeed := seed + uint64(i) + 1

		// Pick + validate round: untimed full run chooses the target.
		runner.Reseed(roundSeed)
		res, err := runner.Run(src)
		if err != nil {
			return err
		}
		if !skipVal {
			if err := graph.ValidateDistances(g, src, res.Dist); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
		}
		wantDepth := res.Levels / 2
		if wantDepth < 1 {
			wantDepth = 1
		}
		dst := src
		for v, d := range res.Dist {
			if d == int32(wantDepth) {
				dst = int32(v)
				break
			}
		}
		wantDist := res.Dist[dst]
		fullEdges := res.EdgesTraversed

		// Timed pair, order alternating by round parity.
		timedFull := func() (float64, error) {
			runner.Reseed(roundSeed)
			start := time.Now()
			_, err := runner.Run(src)
			return time.Since(start).Seconds(), err
		}
		timedST := func() (float64, int64, error) {
			runner.Reseed(roundSeed)
			start := time.Now()
			res, err := runner.RunGoal(ctx, src, core.GoalTo(dst))
			elapsed := time.Since(start).Seconds()
			if err != nil {
				return 0, 0, err
			}
			if res.Dist[dst] != wantDist {
				return 0, 0, fmt.Errorf("round %d: s-t dist[%d] = %d, full BFS says %d", i, dst, res.Dist[dst], wantDist)
			}
			return elapsed, res.EdgesTraversed, nil
		}
		var tFull, tST float64
		var stEdges int64
		if i%2 == 0 {
			if tFull, err = timedFull(); err != nil {
				return err
			}
			if tST, stEdges, err = timedST(); err != nil {
				return err
			}
		} else {
			if tST, stEdges, err = timedST(); err != nil {
				return err
			}
			if tFull, err = timedFull(); err != nil {
				return err
			}
		}
		ratio := tFull / tST
		frac := float64(stEdges) / float64(fullEdges)
		ratios = append(ratios, ratio)
		fracs = append(fracs, frac)
		fullMS = append(fullMS, tFull*1e3)
		stMS = append(stMS, tST*1e3)
		status := "skipped"
		if !skipVal {
			status = "ok"
		}
		fmt.Fprintf(w, "round %2d: src=%-9d dst=%-9d dist=%-3d full=%8.2fms s-t=%8.2fms speedup=%5.2fx edges=%5.1f%% validation=%s\n",
			i, src, dst, wantDist, tFull*1e3, tST*1e3, ratio, frac*100, status)
	}
	fmt.Fprintf(w, "\npaired-median s-t speedup: %.2fx (full %.2fms vs s-t %.2fms median, %.1f%% of edges) over %d rounds\n",
		stats.Summarize(ratios).Median, stats.Summarize(fullMS).Median, stats.Summarize(stMS).Median,
		stats.Summarize(fracs).Median*100, len(sources))
	return nil
}

func harmonic(k, accOfInverses float64) float64 {
	if accOfInverses == 0 {
		return 0
	}
	return k / accOfInverses
}

func fmtTEPS(t float64) string {
	switch {
	case t >= 1e9:
		return fmt.Sprintf("%.2fGTEPS", t/1e9)
	case t >= 1e6:
		return fmt.Sprintf("%.1fMTEPS", t/1e6)
	case math.IsNaN(t) || t <= 0:
		return "n/a"
	default:
		return fmt.Sprintf("%.0fTEPS", t)
	}
}
