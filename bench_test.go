package optibfs_test

// One benchmark family per paper artifact:
//
//	BenchmarkTable5a / BenchmarkTable5b  — Table V(a,b) running times
//	BenchmarkFig2                        — Figure 2 scalability sweep
//	BenchmarkFig3                        — Figure 3 TEPS
//	BenchmarkTable6                      — Table VI steal statistics
//	BenchmarkAblation*                   — design-choice ablations
//
// Each benchmark reports, besides ns/op on this host, the cost-model
// metrics used in EXPERIMENTS.md: modeled-ms (target machine time) and
// TEPS. Graphs are the Table IV stand-ins scaled by benchScale.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"optibfs"
	"optibfs/internal/core"
	"optibfs/internal/costmodel"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/harness"
	"optibfs/internal/mmio"
	"optibfs/internal/stats"
)

// benchScale divides the paper's graph sizes for benchmarking.
const benchScale = 256

var (
	benchGraphs   = map[string]*graph.CSR{}
	benchGraphsMu sync.Mutex
)

func benchGraph(b *testing.B, name string) *graph.CSR {
	b.Helper()
	benchGraphsMu.Lock()
	defer benchGraphsMu.Unlock()
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	spec, err := harness.SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Generate(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[name] = g
	return g
}

// runBench executes one (algorithm, graph, workers) cell b.N times and
// reports modeled milliseconds and TEPS for the machine.
func runBench(b *testing.B, g *graph.CSR, algo harness.AlgoSpec, workers int, m costmodel.Machine, opt core.Options) {
	b.Helper()
	opt.Workers = workers
	if algo.IsSerial() {
		opt.Workers = 1
	}
	src := harness.PickSources(g, 1, 0xbe7c)[0]
	var modeled, teps float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = uint64(i) + 1
		res, err := algo.Run(g, src, opt)
		if err != nil {
			b.Fatal(err)
		}
		mt := costmodel.Modeled(m, algo.Shape(), res)
		modeled += mt
		teps += stats.TEPS(res.EdgesTraversed, mt)
	}
	b.StopTimer()
	b.ReportMetric(modeled/float64(b.N)*1e3, "modeled-ms")
	b.ReportMetric(teps/float64(b.N)/1e6, "modeled-MTEPS")
}

// table5 runs the Table V benchmark family for one machine profile.
func table5(b *testing.B, m costmodel.Machine) {
	for _, gname := range []string{"wikipedia", "cage14", "kkt-power", "rmat-10M-100M"} {
		g := benchGraph(b, gname)
		for _, algo := range harness.TableAlgos {
			b.Run(fmt.Sprintf("%s/%s", gname, algo.Name), func(b *testing.B) {
				runBench(b, g, algo, m.Cores, m, core.Options{})
			})
		}
	}
}

func BenchmarkTable5a(b *testing.B) { table5(b, costmodel.Lonestar) }
func BenchmarkTable5b(b *testing.B) { table5(b, costmodel.Trestles) }

// BenchmarkFig2 sweeps worker counts for the lockfree variants on the
// wikipedia stand-in (the paper's scalability figure).
func BenchmarkFig2(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	for _, algo := range harness.LockfreeAlgos {
		for _, p := range []int{1, 2, 4, 8, 12, 32} {
			m := costmodel.Lonestar
			if p > m.Cores {
				m = costmodel.Trestles
			}
			b.Run(fmt.Sprintf("%s/p%d", algo.Name, p), func(b *testing.B) {
				runBench(b, g, algo, p, m, core.Options{})
			})
		}
	}
}

// BenchmarkFig3 reports TEPS for every algorithm on the real-world
// stand-ins (the modeled-MTEPS metric is the figure's y-axis).
func BenchmarkFig3(b *testing.B) {
	for _, gname := range []string{"cage15", "freescale", "wikipedia"} {
		g := benchGraph(b, gname)
		for _, algo := range harness.TableAlgos {
			b.Run(fmt.Sprintf("%s/%s", gname, algo.Name), func(b *testing.B) {
				runBench(b, g, algo, costmodel.Lonestar.Cores, costmodel.Lonestar, core.Options{})
			})
		}
	}
}

// BenchmarkTable6 measures the steal machinery of BFS_WS vs BFS_WSL,
// reporting the steal taxonomy as metrics.
func BenchmarkTable6(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	for _, algo := range []core.Algorithm{core.BFSWS, core.BFSWSL} {
		b.Run(string(algo), func(b *testing.B) {
			src := harness.PickSources(g, 1, 77)[0]
			var agg stats.Counters
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, src, algo, core.Options{Workers: 12, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				agg.Add(&res.Counters)
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(agg.StealAttempts)/n, "steals/op")
			b.ReportMetric(float64(agg.StealSuccess)/n, "steal-ok/op")
			b.ReportMetric(float64(agg.StealVictimIdle)/n, "victim-idle/op")
			b.ReportMetric(float64(agg.StealTooSmall)/n, "too-small/op")
			b.ReportMetric(float64(agg.StealStale+agg.StealInvalid)/n, "stale+invalid/op")
			b.ReportMetric(float64(agg.StealVictimLocked)/n, "victim-locked/op")
			b.ReportMetric(float64(agg.LockAcquisitions)/n, "locks/op")
		})
	}
}

// BenchmarkAblationLockfree pairs each locked variant with its lockfree
// counterpart (the paper's headline comparison).
func BenchmarkAblationLockfree(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	pairs := [][2]core.Algorithm{
		{core.BFSC, core.BFSCL},
		{core.BFSW, core.BFSWL},
		{core.BFSWS, core.BFSWSL},
	}
	for _, pair := range pairs {
		for _, algo := range pair {
			spec := harness.AlgoSpec{}
			for _, a := range harness.TableAlgos {
				if a.Name == string(algo) {
					spec = a
				}
			}
			b.Run(string(algo), func(b *testing.B) {
				runBench(b, g, spec, 12, costmodel.Lonestar, core.Options{})
			})
		}
	}
}

// BenchmarkAblationSegment sweeps the centralized dispatch segment size
// (fixed values vs the paper's adaptive rule, SegmentSize=0).
func BenchmarkAblationSegment(b *testing.B) {
	g := benchGraph(b, "cage14")
	spec, err := harness.AlgoByName(string(core.BFSCL))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []int{0, 1, 16, 256, 4096} {
		name := fmt.Sprintf("s%d", s)
		if s == 0 {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			runBench(b, g, spec, 12, costmodel.Lonestar, core.Options{SegmentSize: s})
		})
	}
}

// BenchmarkAblationPools sweeps BFS_DL's decentralization degree j.
func BenchmarkAblationPools(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	spec, err := harness.AlgoByName(string(core.BFSDL))
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range []int{1, 2, 4, 8, 12} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			runBench(b, g, spec, 12, costmodel.Lonestar, core.Options{Pools: j})
		})
	}
}

// BenchmarkAblationScaleFree sweeps the hot-vertex threshold and the
// paper's optional phase-2 stealing and §IV-D parent-claim filter.
func BenchmarkAblationScaleFree(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	spec, err := harness.AlgoByName(string(core.BFSWSL))
	if err != nil {
		b.Fatal(err)
	}
	for _, thr := range []int64{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("threshold%d", thr), func(b *testing.B) {
			runBench(b, g, spec, 12, costmodel.Lonestar, core.Options{HighDegreeThreshold: thr})
		})
	}
	b.Run("phase2stealing", func(b *testing.B) {
		runBench(b, g, spec, 12, costmodel.Lonestar, core.Options{Phase2Stealing: true})
	})
	b.Run("parentclaim", func(b *testing.B) {
		runBench(b, g, spec, 12, costmodel.Lonestar, core.Options{ParentClaim: true})
	})
}

// BenchmarkAblationNUMA compares unbiased vs socket-biased stealing.
func BenchmarkAblationNUMA(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	spec, err := harness.AlgoByName(string(core.BFSWL))
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		sockets int
		bias    float64
	}{
		{"flat", 1, 0},
		{"2sockets-bias0.9", 2, 0.9},
		{"4sockets-bias0.9", 4, 0.9},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			runBench(b, g, spec, 12, costmodel.Lonestar,
				core.Options{Sockets: cfg.sockets, SameSocketBias: cfg.bias})
		})
	}
}

// BenchmarkExtensionEdgePartition compares the §IV-D future-work
// edge-partitioned variant (BFS_EL) against vertex-partitioned BFS_CL
// on a uniform mesh and a hub-heavy scale-free graph — edge division
// should shine exactly where vertex degrees are skewed.
func BenchmarkExtensionEdgePartition(b *testing.B) {
	for _, gname := range []string{"cage14", "wikipedia"} {
		g := benchGraph(b, gname)
		for _, name := range []string{string(core.BFSCL), string(core.BFSEL)} {
			spec, err := harness.AlgoByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", gname, name), func(b *testing.B) {
				runBench(b, g, spec, 12, costmodel.Lonestar, core.Options{})
			})
		}
	}
}

// BenchmarkAblationReorder measures the locality effect of vertex
// relabeling (BFS order / degree order) on serial BFS wall time on
// this host — a real-cache effect, so ns/op is the relevant metric.
func BenchmarkAblationReorder(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	src := harness.PickSources(g, 1, 5)[0]
	variants := map[string]*graph.CSR{"original": g}
	if g2, _, err := optibfs.ReorderByBFS(g, src); err == nil {
		variants["bfs-order"] = g2
	} else {
		b.Fatal(err)
	}
	if g3, _, err := optibfs.ReorderByDegree(g); err == nil {
		variants["degree-order"] = g3
	} else {
		b.Fatal(err)
	}
	for _, name := range []string{"original", "bfs-order", "degree-order"} {
		gg := variants[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(gg, 0, core.Serial, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSteadyState measures warm Engine.Run on the
// wikipedia stand-in: after the warmup runs every per-run structure —
// dist/parent/claim arrays, queue buffers, counters, RNG streams, and
// the crew of worker goroutines — is pooled on the engine and
// invalidated by the epoch bump, so allocs/op must be 0.
// The timeline variant additionally enables the per-level timeline and
// dispatch tracing, whose buffers are pooled the same way — turning
// observability on must not cost warm-path allocations.
// scripts/benchsmoke.sh gates CI on exactly these numbers.
func BenchmarkEngineSteadyState(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	src := harness.PickSources(g, 1, 0xbe7c)[0]
	cases := []struct {
		name string
		algo optibfs.Algorithm
		opt  optibfs.Options
	}{
		{string(optibfs.BFSCL), optibfs.BFSCL, optibfs.Options{Workers: 8, Seed: 1}},
		{string(optibfs.BFSWL), optibfs.BFSWL, optibfs.Options{Workers: 8, Seed: 1}},
		{string(optibfs.BFSWSL), optibfs.BFSWSL, optibfs.Options{Workers: 8, Seed: 1}},
		{string(optibfs.BFSWSL) + "-timeline", optibfs.BFSWSL, optibfs.Options{
			Workers: 8, Seed: 1,
			LevelTimeline: true, TraceCapacity: 1 << 12,
		}},
	}
	for _, tc := range cases {
		opt := tc.opt
		b.Run(tc.name, func(b *testing.B) {
			e, err := optibfs.NewEngine(g, tc.algo, &opt)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			// Warmup: racy duplicate counts vary run to run, so the
			// pooled queue buffers take a few runs to reach their
			// high-water capacity.
			for i := 0; i < 8; i++ {
				if _, err := e.Run(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHybridSteadyState is the warm-path discipline check for the
// in-core direction-optimizing mode: after warmup every hybrid
// structure — the frontier bitmaps, the cached transpose, the
// per-worker decision lanes, and the compaction scatter's queue
// targets — is pooled on the engine, so allocs/op must be 0 exactly
// like the plain steady-state engines. The wikipedia stand-in's
// low-diameter frontier growth takes the alpha/beta switch every run,
// so the bottom-up kernel and both representation conversions are on
// the measured path. scripts/benchsmoke.sh gates CI on these numbers.
func BenchmarkHybridSteadyState(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	src := harness.PickSources(g, 1, 0xbe7c)[0]
	for _, algo := range []optibfs.Algorithm{optibfs.BFSWL, optibfs.BFSWSL} {
		b.Run(string(algo), func(b *testing.B) {
			e, err := optibfs.NewEngine(g, algo, &optibfs.Options{
				Workers: 8, Seed: 1, Hybrid: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			var sawBottomUp bool
			for i := 0; i < 8; i++ { // warm the pooled buffers
				res, err := e.Run(src)
				if err != nil {
					b.Fatal(err)
				}
				sawBottomUp = sawBottomUp || res.Counters.BottomUpLevels > 0
			}
			if !sawBottomUp {
				b.Fatal("hybrid run never went bottom-up; the benchmark would measure plain top-down")
			}
			var edges int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Run(src)
				if err != nil {
					b.Fatal(err)
				}
				edges += res.EdgesTraversed
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(edges)/secs/1e6, "MTEPS")
			}
		})
	}
}

// BenchmarkGoalSteadyState is the warm-path discipline check for
// goal-directed termination: a warm engine repeatedly runs an s-t
// search to a mid-depth target (plus a depth-bounded variant). The goal
// predicate is evaluated only at level barriers on pooled state, so
// allocs/op must be 0 exactly like the plain steady-state engines, and
// the truncated partial sweep must traverse strictly fewer edges than
// the full run it short-circuits. scripts/benchsmoke.sh gates CI on
// these numbers.
func BenchmarkGoalSteadyState(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	src := harness.PickSources(g, 1, 0xbe7c)[0]
	ctx := context.Background()
	for _, algo := range []optibfs.Algorithm{optibfs.BFSWL, optibfs.BFSWSL} {
		e, err := optibfs.NewEngine(g, algo, &optibfs.Options{Workers: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		full, err := e.Run(src) // picks the mid-depth target
		if err != nil {
			b.Fatal(err)
		}
		fullEdges := full.EdgesTraversed
		wantDepth := full.Levels / 2
		if wantDepth < 1 {
			wantDepth = 1
		}
		dst := src
		for v, d := range full.Dist {
			if d == int32(wantDepth) {
				dst = int32(v)
				break
			}
		}
		for _, gc := range []struct {
			name string
			goal optibfs.Goal
		}{
			{"st", optibfs.GoalTo(dst)},
			{"depth2", optibfs.Goal{MaxDepth: 2}},
		} {
			b.Run(fmt.Sprintf("%s/%s", algo, gc.name), func(b *testing.B) {
				for i := 0; i < 8; i++ { // warm the pooled buffers
					if _, err := e.RunGoal(ctx, src, gc.goal); err != nil {
						b.Fatal(err)
					}
				}
				var edges int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := e.RunGoal(ctx, src, gc.goal)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Truncated {
						b.Fatal("goal run was not truncated; the benchmark would measure a full sweep")
					}
					edges += res.EdgesTraversed
				}
				b.StopTimer()
				if b.N > 0 {
					b.ReportMetric(float64(edges)/float64(b.N)/float64(fullEdges)*100, "edge-%")
				}
			})
		}
	}
}

// BenchmarkEngineRunMany compares one warm engine sweeping 32 sources
// against 32 one-shot BFS calls — the allocation/zeroing cost the
// engine amortizes is the entire difference, so engine-32src must beat
// oneshot-32src on wall time in the same benchmark run.
func BenchmarkEngineRunMany(b *testing.B) {
	g := benchGraph(b, "wikipedia")
	sources := harness.PickSources(g, 32, 0x32)
	b.Run("engine-32src", func(b *testing.B) {
		e, err := optibfs.NewEngine(g, optibfs.BFSWSL, &optibfs.Options{Workers: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		if err := e.RunMany(sources, nil); err != nil { // warmup sweep
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var reached int64
			err := e.RunMany(sources, func(_ int, res *optibfs.Result) error {
				reached += res.Reached
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if reached == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
	b.Run("oneshot-32src", func(b *testing.B) {
		opt := &optibfs.Options{Workers: 8, Seed: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var reached int64
			for _, src := range sources {
				res, err := optibfs.BFS(g, src, optibfs.BFSWSL, opt)
				if err != nil {
					b.Fatal(err)
				}
				reached += res.Reached
			}
			if reached == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
}

// drainGraph memoizes graphs that are not Table IV stand-ins (the
// drain-locality benchmark uses a full RMAT-18 and a uniform grid).
func drainGraph(b *testing.B, name string, mk func() (*graph.CSR, error)) *graph.CSR {
	b.Helper()
	benchGraphsMu.Lock()
	defer benchGraphsMu.Unlock()
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	g, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[name] = g
	return g
}

// BenchmarkDrainLocality isolates the hot top-down drain: warm BFS_WSL
// sweeps over a scale-free RMAT-18 (2^18 vertices, edgefactor 16) and a
// uniform 512x512 grid at publication block sizes 1 (one shared index
// store per discovery — the pre-batching baseline), 64, and 256.
// MTEPS here is measured wall-clock TEPS on this host, not modeled:
// block batching and the prefetched edge scan are real-cache effects.
// Every row runs at Workers 1 and 2, explicitly rather than GOMAXPROCS,
// so the fused lockfree drain is covered alone and with a thief on any
// runner size (two workers oversubscribe a one-core runner, which
// blurs their MTEPS but not their allocation count).
// The block>=64 rows must beat block=1 by >=10% MTEPS on rmat18
// (recorded in EXPERIMENTS.md, "Hot-path locality");
// scripts/benchsmoke.sh gates allocs/op at 0 on every sub-benchmark
// alongside BenchmarkEngineSteadyState.
func BenchmarkDrainLocality(b *testing.B) {
	graphs := []struct {
		name string
		mk   func() (*graph.CSR, error)
	}{
		{"rmat18", func() (*graph.CSR, error) {
			return gen.Graph500RMAT(1<<18, 16<<18, 0xd5a1, gen.Options{})
		}},
		{"grid512", func() (*graph.CSR, error) {
			return gen.Grid2D(512, 512, false)
		}},
	}
	for _, gc := range graphs {
		g := drainGraph(b, gc.name, gc.mk)
		src := harness.PickSources(g, 1, 0xd7a1)[0]
		for _, blk := range []int{1, 64, 256} {
			for _, p := range []int{1, 2} {
				name := fmt.Sprintf("%s/workers%d/block%d", gc.name, p, blk)
				b.Run(name, func(b *testing.B) {
					e, err := optibfs.NewEngine(g, optibfs.BFSWSL, &optibfs.Options{
						Workers: p, Seed: 1, PublishBlock: blk,
					})
					if err != nil {
						b.Fatal(err)
					}
					defer e.Close()
					for i := 0; i < 8; i++ { // warm the pooled buffers
						if _, err := e.Run(src); err != nil {
							b.Fatal(err)
						}
					}
					var edges int64
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := e.Run(src)
						if err != nil {
							b.Fatal(err)
						}
						edges += res.EdgesTraversed
					}
					b.StopTimer()
					if secs := b.Elapsed().Seconds(); secs > 0 {
						b.ReportMetric(float64(edges)/secs/1e6, "MTEPS")
					}
				})
			}
		}
	}
}

// BenchmarkShardedSteadyState drives warm sharded backends over
// RMAT-18 at shard counts 1, 2, and 4 (shards=1 routes to the classic
// single engine — the parity baseline the 1-shard overhead criterion
// is judged against). MTEPS is measured wall clock on this host.
// scripts/benchsmoke.sh gates allocs/op on the warm loop alongside the
// other steady-state benchmarks: the exchange flushes into
// preallocated queues, so sharding must not reintroduce per-run
// allocation.
func BenchmarkShardedSteadyState(b *testing.B) {
	g := drainGraph(b, "rmat18", func() (*graph.CSR, error) {
		return gen.Graph500RMAT(1<<18, 16<<18, 0xd5a1, gen.Options{})
	})
	src := harness.PickSources(g, 1, 0xbe7c)[0]
	for _, algo := range []core.Algorithm{core.BFSWL, core.BFSWSL} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/shards%d", algo, shards), func(b *testing.B) {
				be, err := core.NewBackend(g, algo, core.Options{
					Workers: 8, Seed: 1,
					TrackParents: true, Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer be.Close()
				for i := 0; i < 8; i++ { // warm the pooled buffers
					if _, err := be.Run(src); err != nil {
						b.Fatal(err)
					}
				}
				var edges int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := be.Run(src)
					if err != nil {
						b.Fatal(err)
					}
					edges += res.EdgesTraversed
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(edges)/secs/1e6, "MTEPS")
				}
			})
		}
	}
}

// BenchmarkMappedLoad measures LoadMapped on a v2 file: cold is the
// first touch after writing (page cache warm from the write, mapping
// setup included), warm is repeated loads of the same file. The heap
// comparison row reads the same graph through ReadBinary.
func BenchmarkMappedLoad(b *testing.B) {
	g := drainGraph(b, "rmat18", func() (*graph.CSR, error) {
		return gen.Graph500RMAT(1<<18, 16<<18, 0xd5a1, gen.Options{})
	})
	dir := b.TempDir()
	path := dir + "/g.bin2"
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := mmio.WriteBinaryV2(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := mmio.LoadMapped(path, mmio.MapOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if m.Graph().NumVertices() != g.NumVertices() {
				b.Fatal("wrong graph")
			}
			if err := m.Release(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			h, err := mmio.ReadBinary(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if h.NumVertices() != g.NumVertices() {
				b.Fatal("wrong graph")
			}
		}
	})
}

// BenchmarkSerialBaseline pins the sbfs number every speedup in
// EXPERIMENTS.md is relative to.
func BenchmarkSerialBaseline(b *testing.B) {
	for _, gname := range []string{"wikipedia", "cage14"} {
		g := benchGraph(b, gname)
		spec, err := harness.AlgoByName(string(core.Serial))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(gname, func(b *testing.B) {
			runBench(b, g, spec, 1, costmodel.Lonestar, core.Options{})
		})
	}
}
