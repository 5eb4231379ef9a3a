package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optibfs/internal/baseline2"
	"optibfs/internal/core"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/serve"
)

// servingConfig mirrors bfsd's default flags, with the workload's
// algorithm and workers, so the in-process serve leg runs what the
// daemon runs.
func servingConfig(w *workload) serve.RegistryConfig {
	return serve.RegistryConfig{
		Guard: serve.Config{
			Algo:        w.algo,
			Concurrency: 2,
			Deadline:    5 * time.Second,
			Grace:       time.Second,
			QueueWait:   100 * time.Millisecond,
			Options:     core.Options{Workers: w.workers, Shards: 1, StallTimeout: time.Second},
			Batch:       serve.BatchConfig{Enabled: true, Window: time.Millisecond, MaxLanes: 64},
		},
		Admission: serve.AdmissionConfig{QueueWait: time.Second},
	}
}

// coreOptions are the options the Guard gives its engines, so the core
// leg differs from the serve leg by the serving layer alone.
func coreOptions(workers int) core.Options {
	return core.Options{Workers: workers, TrackParents: true, StallTimeout: time.Second}
}

// coreTotals accumulates the work counters of core Results.
type coreTotals struct {
	runs, reached, pops, edgesScanned, levels int64
	stealAttempts, stealSuccess, atomicRMW    int64
}

func (c *coreTotals) add(r *core.Result) {
	c.runs++
	if !r.Truncated {
		// A goal-truncated run settles its final frontier without
		// popping it, so only complete traversals price duplicates.
		c.reached += r.Reached
		c.pops += r.Pops
	}
	c.edgesScanned += r.Counters.EdgesScanned
	c.levels += int64(r.Levels)
	c.stealAttempts += r.Counters.StealAttempts
	c.stealSuccess += r.Counters.StealSuccess
	c.atomicRMW += r.Counters.AtomicRMW
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layers holds one in-process instance of each layer over the
// workload's graphs, for the traced replay: core engines configured
// like the Guard's, and a serve.Registry configured like bfsd.
type layers struct {
	mapped []*mmio.MappedGraph
	graphs map[string]*graph.CSR
	core   map[string]core.Backend // the workload's workers
	core1  map[string]core.Backend // one worker, for parallel_speedup
	reg    *serve.Registry
	http   *bfsdProc

	loadMs, loadMBps, newEngineMs, swapMs float64
}

// layerReps is how many times openLayers repeats each timed step; the
// time comes out of the traced run's replay budget.
const layerReps = 21

// openLayers loads the graphs into every in-process layer, timing the
// mmio load, engine construction and a same-name registry swap
// layerReps times each (medians).
func openLayers(in *inputs, w *workload, http *bfsdProc) (*layers, error) {
	algo, reps := w.algo, layerReps
	l := &layers{http: http, graphs: map[string]*graph.CSR{}, core: map[string]core.Backend{}, core1: map[string]core.Backend{}}
	var loads, engines, swaps []float64
	var bytes int64
	for _, gf := range in.Graphs {
		bytes += gf.Bytes
	}
	for rep := 0; rep < reps; rep++ {
		keep := rep == reps-1
		var load, eng time.Duration
		for _, gf := range in.Graphs {
			t0 := time.Now()
			mg, err := mmio.LoadMapped(in.path(gf), mmio.MapOptions{})
			if err != nil {
				l.close()
				return nil, err
			}
			t1 := time.Now()
			b, err := core.NewBackend(mg.Graph(), algo, coreOptions(w.workers))
			eng += time.Since(t1)
			load += t1.Sub(t0)
			if err != nil {
				_ = mg.Release() // the engine error is the one to report
				l.close()
				return nil, err
			}
			if !keep {
				b.Close()
				_ = mg.Release() // unmap errors cannot occur for a mapping this process made
				continue
			}
			l.mapped = append(l.mapped, mg)
			l.graphs[gf.Name] = mg.Graph()
			l.core[gf.Name] = b
			if l.core1[gf.Name], err = core.NewBackend(mg.Graph(), algo, coreOptions(1)); err != nil {
				l.close()
				return nil, err
			}
		}
		loads = append(loads, ms(load))
		engines = append(engines, ms(eng))
		if !keep {
			gcQuiet()
		}
	}
	l.loadMs = median(loads)
	l.loadMBps = float64(bytes) / 1e6 / (l.loadMs / 1e3)
	l.newEngineMs = median(engines)

	l.reg = serve.NewRegistry(servingConfig(w))
	ctx := context.Background()
	for i, gf := range in.Graphs {
		// The first graph is also reloaded under its own name: the
		// registry time that is not the load itself is the swap
		// (fleet build, install, retire hand-off).
		n := 1
		if i == 0 {
			n = 1 + reps
		}
		for rep := 0; rep < n; rep++ {
			var inSource time.Duration
			path := in.path(gf)
			source := func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
				t0 := time.Now()
				defer func() { inSource = time.Since(t0) }()
				mg, err := mmio.LoadMapped(path, mmio.MapOptions{})
				if err != nil {
					return nil, nil, err
				}
				return mg.Graph(), mg, nil
			}
			t0 := time.Now()
			if err := l.reg.Load(ctx, gf.Name, source); err != nil {
				l.close()
				return nil, fmt.Errorf("registry load %s: %w", gf.Name, err)
			}
			if rep > 0 {
				swaps = append(swaps, ms(time.Since(t0)-inSource))
			}
		}
	}
	l.swapMs = median(swaps)
	return l, nil
}

func (l *layers) close() {
	if l.reg != nil {
		l.reg.Close()
	}
	for _, m := range []map[string]core.Backend{l.core, l.core1} {
		for _, b := range m {
			b.Close()
		}
	}
	for _, mg := range l.mapped {
		_ = mg.Release() // see openLayers
	}
}

// replay sends the seeded query sequence, from index first, through
// every layer — core, serve, then bfsd — in blocks until budget runs
// out, always completing at least one block. Within a block the core
// legs run one query at a time, and the serve and bfsd legs run on
// callers concurrent callers, as the workload's end-to-end loop does,
// so that they take the batcher's fused path when the loop does. Each
// query's spans share its request id, which pairs the legs for the
// per-layer differences. Returned samples count toward attempted and
// failed.
func (l *layers) replay(qs []query, first, callers int, budget time.Duration, tr *tracer, tot *coreTotals) []sample {
	block := 4 * callers
	ctx := context.Background()
	var out []sample
	t0 := time.Now()
	for b := 0; b == 0 || time.Since(t0) < budget; b++ {
		// The block, and its queries that run in process.
		type job struct {
			q   query
			req int64
		}
		var all, bfs []job
		for i := 0; i < block; i++ {
			n := b*block + i
			j := job{qs[(first+n)%len(qs)], int64(1_000_000 + n)}
			all = append(all, j)
			if j.q.inProcess() {
				bfs = append(bfs, j)
			}
		}
		for _, j := range bfs {
			q := j.q
			for _, leg := range []struct {
				name string
				eng  core.Backend
			}{{"core.RunGoal", l.core[q.Graph]}, {"core.RunGoal.1worker", l.core1[q.Graph]}} {
				sp := tr.begin(leg.name, -1, j.req, 0)
				res, err := leg.eng.RunGoal(ctx, q.Src, q.goal())
				tr.end(sp)
				s := sample{kind: q.Kind}
				if err != nil {
					s.fail = err.Error()
				} else {
					if leg.eng == l.core[q.Graph] {
						tot.add(res)
					}
					s.setChecked(checkDist(q, res.Dist, res.Reached, res.Levels, res.LevelSizes))
				}
				out = append(out, s)
			}
		}
		out = append(out, fanOut(len(bfs), callers, func(i, c int) sample {
			return l.serveLeg(ctx, bfs[i].q, bfs[i].req, c, tr)
		})...)
		out = append(out, fanOut(len(all), callers, func(i, c int) sample {
			name := "bfsd.http"
			if !all[i].q.inProcess() {
				name = "bfsd.http.analysis"
			}
			sp := tr.begin(name, -1, all[i].req, c)
			defer tr.end(sp)
			return l.http.query(all[i].q)
		})...)
	}
	return out
}

// fanOut runs leg(i, c) for every i in [0, n) on callers goroutines,
// each c taking the next unclaimed i, and returns the samples in i
// order.
func fanOut(n, callers int, leg func(i, c int) sample) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i] = leg(i, c)
			}
		}()
	}
	wg.Wait()
	return out
}

// serveLeg answers q through the registry the way bfsd's handler does:
// admission and lease, the batcher, release.
func (l *layers) serveLeg(ctx context.Context, q query, req int64, tid int, tr *tracer) sample {
	s := sample{kind: q.Kind}
	sp := tr.begin("serve.query", -1, req, tid)
	defer tr.end(sp)
	b := tr.begin("serve.Begin", sp, req, tid)
	lease, err := l.reg.Begin(ctx, q.Graph)
	tr.end(b)
	if err != nil {
		s.fail = err.Error()
		return s
	}
	f := tr.begin("serve.QueryFusedGoal", sp, req, tid)
	ans, err := lease.Guard().QueryFusedGoal(ctx, q.Src, q.goal())
	tr.end(f)
	if err != nil {
		s.fail = err.Error()
	} else {
		s.setChecked(checkDist(q, ans.Dist, ans.Reached, ans.Levels, nil))
	}
	r := tr.begin("serve.Release", sp, req, tid)
	lease.Release()
	tr.end(r)
	return s
}

// atomicControl is the positive control for the core.atomic_rmw gate.
// The core's kernels do no atomic read-modify-write, so they never
// increment Counters.AtomicRMW and the gate reads 0 by construction.
// baseline2's queue+cas kernel does, and counts each one in the same
// field: a nonzero count from it on the workload's first BFS query
// shows that the counter reaches a Result and this benchmark's sum.
func (l *layers) atomicControl(qs []query) (int64, error) {
	for _, q := range qs {
		if !q.inProcess() {
			continue
		}
		r, err := baseline2.Run(l.graphs[q.Graph], q.Src, baseline2.QueueCAS, core.Options{Workers: runtime.NumCPU()})
		if err != nil {
			return 0, err
		}
		var c coreTotals
		c.add(r)
		return c.atomicRMW, nil
	}
	return 0, fmt.Errorf("no BFS query to run the control on")
}

// pairedDiff is the median over queries of (a − b) for the spans of
// two legs that share a request id: one layer's own time on the same
// query.
func pairedDiff(tr *tracer, a, b string) float64 {
	byReq := map[int64]float64{}
	for _, s := range tr.spans {
		if s.Name == b && s.End > 0 {
			byReq[s.Req] = ms(s.End - s.Start)
		}
	}
	var xs []float64
	for _, s := range tr.spans {
		if s.Name == a && s.End > 0 {
			if v, ok := byReq[s.Req]; ok {
				xs = append(xs, ms(s.End-s.Start)-v)
			}
		}
	}
	return median(xs)
}
