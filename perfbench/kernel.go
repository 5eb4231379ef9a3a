package main

import (
	"context"
	"os"
	"runtime"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/mmio"
)

// kernelRun drives one in-process engine from a single caller in a
// closed loop: no serving layer, no HTTP.
type kernelRun struct {
	eng  *core.Engine
	mg   *mmio.MappedGraph
	qs   []query
	next int
	tot  coreTotals
}

// runKernel runs a kernel-* workload.
func runKernel(cfg *config, in *inputs, rep map[string]any) (*result, map[string]any, error) {
	w := cfg.w
	gf := in.Graphs[0]
	k := &kernelRun{qs: in.Queries}
	// Setup is LoadMapped (verified) plus NewEngine, repeated; the last
	// repetition's engine serves the run.
	var setups, loads []float64
	for i := 0; i < w.setupReps; i++ {
		t0 := time.Now()
		mg, err := mmio.LoadMapped(in.path(gf), mmio.MapOptions{})
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		eng, err := core.NewEngine(mg.Graph(), w.algo, core.Options{Workers: runtime.NumCPU()})
		if err != nil {
			_ = mg.Release() // the engine error is the one to report
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, ms(t1.Sub(t0)))
		if i < w.setupReps-1 {
			eng.Close()
			_ = mg.Release() // unmapping a mapping this process made does not fail
			gcQuiet()
			continue
		}
		k.eng, k.mg = eng, mg
	}
	defer func() {
		if k.eng != nil {
			k.eng.Close()
		}
		_ = k.mg.Release()
	}()
	rep["setup_s_samples"] = setups
	rep["load_ms_samples"] = loads
	// Warm-up: page in the graph and the engine's state.
	if _, err := k.phase(0, 1, nil); err != nil {
		return nil, nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !cfg.trace {
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return nil, nil, err
		}
		p, err := k.phase(seconds(cfg.seconds), 100, nil)
		if err != nil {
			return nil, nil, err
		}
		rss, err := procPeakRSSMB(os.Getpid())
		if err != nil {
			return nil, nil, err
		}
		res.tally(p)
		m, diag := endToEnd(p, median(setups), rss)
		res.Metrics = m
		rep["phase"] = diag
		rep["core"] = k.tot.report()
		if k.tot.atomicRMW != 0 {
			res.Correct = false
		}
		return res, rep, nil
	}

	// Traced run: untraced and traced e2e phases, then the layer replay
	// with bfsd and the registry running this workload's kernel.
	tr := newTracer()
	untraced, err := k.phase(seconds(0.3*cfg.seconds), 1, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := k.phase(seconds(0.3*cfg.seconds), 1, tr)
	if err != nil {
		return nil, nil, err
	}
	res.tally(untraced)
	res.tally(traced)
	tot := k.tot
	k.eng.Close()
	k.eng = nil
	gcQuiet()

	rest := seconds(0.4 * cfg.seconds)
	t0 := time.Now()
	d, err := startBfsd(cfg.bfsd, w, 1)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	if _, err := d.load(gf.Name, in.path(gf)); err != nil {
		return nil, nil, err
	}
	l, err := openLayers(in, w, d)
	if err != nil {
		return nil, nil, err
	}
	defer l.close()
	before, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	replay := l.replay(k.qs, k.next, 1, rest-time.Since(t0), tr, &tot)
	after, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	tp := &traceRun{
		kernel: true, untraced: untraced, traced: traced, replay: replay, qs: k.qs, tr: tr, l: l, tot: &tot,
		deltas: metricDeltas(before, after), http: httpSamples(replay),
	}
	tp.finish(cfg, res, rep)
	return res, rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// phase runs traversals back to back for dur, and on until it holds
// minSamples (so a p90 has ten samples beyond it). Each call is timed
// on its own; checking the
// answer against the oracle happens between calls, outside the timing,
// and the phase's span is the time spent inside RunGoal.
func (k *kernelRun) phase(dur time.Duration, minSamples int, tr *tracer) (*phase, error) {
	p := &phase{}
	host0 := readCPUTicks()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	t0 := time.Now()
	prev := t0
	for len(p.samples) < minSamples || time.Since(t0) < dur {
		q := k.qs[k.next%len(k.qs)]
		k.next++
		sp := tr.begin("e2e.RunGoal", -1, int64(k.next), 0)
		start := time.Now()
		r, err := k.eng.RunGoal(ctx, q.Src, q.goal())
		end := time.Now()
		tr.end(sp)
		s := sample{kind: q.Kind, at: p.span, lat: end.Sub(start), lag: start.Sub(prev)}
		prev = end
		p.span += s.lat
		if err != nil {
			s.fail = err.Error()
		} else {
			k.tot.add(r)
			s.setChecked(checkDist(q, r.Dist, r.Reached, r.Levels, r.LevelSizes))
			if s.ok {
				s.edges = r.EdgesTraversed
			}
		}
		p.samples = append(p.samples, s)
	}
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	p.host = hostShares(host0, readCPUTicks())
	return p, nil
}

func (c *coreTotals) report() map[string]any {
	return map[string]any{
		"runs": c.runs, "reached": c.reached, "pops": c.pops, "edges_scanned": c.edgesScanned,
		"levels": c.levels, "steal_attempts": c.stealAttempts, "steal_success": c.stealSuccess,
		"atomic_rmw": c.atomicRMW,
	}
}
