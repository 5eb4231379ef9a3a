// Command bfsrun executes one BFS algorithm on a graph file (or a
// generated graph) and prints timing, work, and steal statistics.
//
// Usage:
//
//	bfsrun -algo BFS_WSL -graph wiki.bin -src 0 -workers 8
//	bfsrun -algo BFS_CL -suite wikipedia -scale 128 -sources 16
//	bfsrun -algo Baseline1(bag) -suite cage14 -validate
//	bfsrun -algo BFS_WSL -suite wikipedia -trace run.json   # Perfetto trace
//	bfsrun -algo BFS_WSL -suite wikipedia -src 0 -dst 4711  # s–t: stop at dst's level
//	bfsrun -algo BFS_CL -suite cage14 -src 0 -k 4           # 4-hop neighborhood
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/costmodel"
	"optibfs/internal/graph"
	"optibfs/internal/harness"
	"optibfs/internal/mmio"
	"optibfs/internal/obs"
	"optibfs/internal/stats"
)

func main() {
	var (
		algoName  = flag.String("algo", "BFS_WSL", "algorithm (see bfsbench tables for names)")
		graphPath = flag.String("graph", "", "graph file (.bin, .mtx, or edge list by extension)")
		suite     = flag.String("suite", "", "generate a Table IV stand-in instead of loading a file")
		scale     = flag.Int("scale", 64, "size divisor for -suite")
		src       = flag.Int("src", -1, "source vertex (-1 = random non-isolated)")
		sources   = flag.Int("sources", 1, "number of sources to run (random when -src=-1)")
		workers   = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		seed      = flag.Uint64("seed", 1, "run seed")
		validate  = flag.Bool("validate", true, "validate distances against serial BFS")
		machine   = flag.String("machine", "Lonestar", "cost-model machine: Lonestar|Trestles|Local")
		profile   = flag.Bool("profile", false, "print the per-level frontier histogram of the last source")
		balance   = flag.Bool("balance", false, "print per-worker load balance of the last source")
		trace     = flag.String("trace", "", "write the last source's dispatch trace as Chrome trace_event JSON (load in Perfetto)")
		reorderM  = flag.String("reorder", "", "vertex relabeling: degree|bfs (results stay in original ids)")
		shards    = flag.Int("shards", 1, "CSR shards for the core family (>1 = owner-compute sharded engines)")
		hybrid    = flag.Bool("hybrid", false, "direction-optimizing mode: bottom-up levels on large frontiers (core parallel family)")
		dst       = flag.Int("dst", -1, "goal vertex: terminate at the level barrier that settles it (core family)")
		maxDepth  = flag.Int("k", 0, "depth bound: explore k closed levels then stop (core family, 0 = unbounded)")
	)
	flag.Parse()
	if err := run(*algoName, *graphPath, *suite, *scale, *src, *sources, *workers, *seed, *validate, *machine, *profile, *balance, *trace, *reorderM, *shards, *hybrid, *dst, *maxDepth); err != nil {
		fmt.Fprintln(os.Stderr, "bfsrun:", err)
		os.Exit(1)
	}
}

func loadGraph(path, suite string, scale int) (*graph.CSR, error) {
	if suite != "" {
		spec, err := harness.SpecByName(suite)
		if err != nil {
			return nil, err
		}
		return spec.Generate(scale)
	}
	if path == "" {
		return nil, fmt.Errorf("need -graph or -suite")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".bin2"):
		// v2 files mmap zero-copy; the mapping lives until process exit.
		m, err := mmio.LoadMapped(path, mmio.MapOptions{})
		if err != nil {
			return nil, err
		}
		return m.Graph(), nil
	case strings.HasSuffix(path, ".mtx"):
		return mmio.ReadMatrixMarket(f)
	default:
		return mmio.ReadEdgeList(f)
	}
}

// writeTrace exports one run's dispatch trace as Chrome trace_event
// JSON. Serial runs record no dispatch events; say so instead of
// writing an empty file.
func writeTrace(path, algoName string, src int32, res *core.Result) error {
	if res.Events == nil {
		return fmt.Errorf("-trace: %s records no dispatch events (serial baseline?)", algoName)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, obs.TraceMeta{Algo: algoName, Source: src}, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(algoName, graphPath, suite string, scale, src, sources, workers int, seed uint64, validate bool, machineName string, profile, balance bool, trace, reorderMode string, shards int, hybrid bool, dst, maxDepth int) error {
	algo, err := harness.AlgoByName(algoName)
	if err != nil {
		return err
	}
	goal := core.GoalTo(int32(dst))
	goal.MaxDepth = int32(maxDepth)
	if goal.Bounded() && !algo.SupportsGoals() {
		return fmt.Errorf("-dst/-k need a goal-capable algorithm (the paper's or DirectionOptimizing); %s runs to exhaustion", algoName)
	}
	if maxDepth < 0 {
		return fmt.Errorf("-k %d: want a non-negative depth bound", maxDepth)
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
	g, err := loadGraph(graphPath, suite, scale)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d avg-deg=%.1f\n", g.NumVertices(), g.NumEdges(), g.AvgDegree())
	if dst >= 0 && int32(dst) >= g.NumVertices() {
		return fmt.Errorf("-dst %d not in [0, %d)", dst, g.NumVertices())
	}
	if goal.Bounded() {
		fmt.Printf("goal: target=%d depth-bound=%d (terminate at the closing level barrier)\n", dst, maxDepth)
	}

	var srcs []int32
	if src >= 0 {
		srcs = []int32{int32(src)}
	} else {
		srcs = harness.PickSources(g, sources, seed)
	}
	opt := core.Options{Workers: workers, Seed: seed, Reorder: core.ReorderMode(reorderMode), Shards: shards, Hybrid: hybrid}
	if opt.Reorder != core.ReorderNone {
		// The engine relabels internally and maps results back, so the
		// -validate comparison below stays in original vertex ids.
		fmt.Printf("reorder: %s (results mapped back to original ids)\n", opt.Reorder)
	}
	if shards > 1 {
		fmt.Printf("shards: %d (owner-compute, cross-shard frontier exchange)\n", shards)
	}
	if trace != "" {
		// Event buffers sized generously: dispatch events are rare
		// relative to edges, and the exporter flags any overflow.
		opt.TraceCapacity = 1 << 16
		opt.LevelTimeline = true
	}
	// All sources run through one pooled runner; results are read (and
	// aggregated) before the next source reuses the arrays.
	runner, err := algo.NewRunner(g, opt)
	if err != nil {
		return err
	}
	defer runner.Close()
	var agg stats.Counters
	var measured, modeled float64
	var lastLevels []int64
	var lastPerWorker []stats.PaddedCounters
	var lastRes *core.Result
	var lastSrc int32
	for _, s := range srcs {
		start := time.Now()
		res, err := runner.RunGoal(context.Background(), s, goal)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if validate {
			if err := validateRun(g, s, goal, res); err != nil {
				return fmt.Errorf("validation failed from source %d: %w", s, err)
			}
		}
		model := costmodel.Modeled(machine, algo.Shape(), res)
		measured += elapsed.Seconds()
		modeled += model
		agg.Add(&res.Counters)
		mark := ""
		if res.Truncated {
			mark = " truncated"
			if dst >= 0 {
				mark = fmt.Sprintf(" truncated dist(%d)=%d", dst, res.Dist[dst])
			}
		}
		fmt.Printf("src=%-8d levels=%-4d reached=%-9d dup=%-7d measured=%8.3fms modeled(%s)=%8.3fms%s\n",
			s, res.Levels, res.Reached, res.Duplicates(), elapsed.Seconds()*1e3, machine.Name, model*1e3, mark)
		lastLevels = res.LevelSizes
		lastPerWorker = res.PerWorker
		lastRes, lastSrc = res, s
	}
	if trace != "" && lastRes != nil {
		if err := writeTrace(trace, algoName, lastSrc, lastRes); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (open in Perfetto or chrome://tracing)\n", trace)
	}
	if balance && len(lastPerWorker) > 0 {
		var total, max int64
		for i := range lastPerWorker {
			e := lastPerWorker[i].EdgesScanned
			total += e
			if e > max {
				max = e
			}
		}
		fmt.Println("\nper-worker load (edges scanned, last source):")
		for i := range lastPerWorker {
			e := lastPerWorker[i].EdgesScanned
			bar := 0
			if max > 0 {
				bar = int(e * 40 / max)
			}
			fmt.Printf("  worker %2d %10d %s\n", i, e, strings.Repeat("#", bar))
		}
		if total > 0 && len(lastPerWorker) > 0 {
			avg := float64(total) / float64(len(lastPerWorker))
			fmt.Printf("  imbalance (max/avg): %.2f\n", float64(max)/avg)
		}
	}
	if profile && len(lastLevels) > 0 {
		var peak int64 = 1
		for _, sz := range lastLevels {
			if sz > peak {
				peak = sz
			}
		}
		fmt.Println("\nfrontier profile (last source):")
		for d, sz := range lastLevels {
			bar := int(sz * 50 / peak)
			fmt.Printf("  level %3d %9d %s\n", d, sz, strings.Repeat("#", bar))
		}
	}
	k := float64(len(srcs))
	fmt.Printf("\nmean over %d sources: measured=%.3fms modeled=%.3fms\n", len(srcs), measured/k*1e3, modeled/k*1e3)
	fmt.Printf("work: pops=%d edges=%d discovered=%d\n", agg.VerticesPopped, agg.EdgesScanned, agg.Discovered)
	fmt.Printf("dispatch: fetches=%d retries=%d locks=%d trylock-fails=%d atomic-rmw=%d\n",
		agg.Fetches, agg.FetchRetries, agg.LockAcquisitions, agg.LockTryFails, agg.AtomicRMW)
	if agg.StealAttempts > 0 {
		fmt.Printf("steals: attempts=%d ok=%d victim-locked=%d victim-idle=%d too-small=%d stale=%d invalid=%d\n",
			agg.StealAttempts, agg.StealSuccess, agg.StealVictimLocked, agg.StealVictimIdle,
			agg.StealTooSmall, agg.StealStale, agg.StealInvalid)
	}
	if validate {
		fmt.Println("validation: OK (audit contract against serial BFS)")
	}
	return nil
}

// validateRun checks one result against the answer tier of the audit
// contract (core.AuditAnswer): oracle distances, the goal's stop point
// and Truncated flag, reach counts and, when tracked, parents.
func validateRun(g *graph.CSR, src int32, goal core.Goal, res *core.Result) error {
	return core.AuditError(core.AuditAnswer(g, src, nil, goal, res))
}
