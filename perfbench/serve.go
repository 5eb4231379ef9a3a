package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"optibfs/internal/baseline2"
)

// servedRun drives bfsd over loopback HTTP.
type servedRun struct {
	w    *workload
	in   *inputs
	d    *bfsdProc
	next atomic.Int64 // position in the seeded query sequence
	// reloads made during open-loop phases: latency in ms, failures.
	reloadMs     []float64
	reloadFailed int64
}

// runServed runs a serve-* workload.
func runServed(cfg *config, in *inputs, rep map[string]any) (*result, map[string]any, error) {
	w := cfg.w
	d, err := startBfsd(cfg.bfsd, w, w.conns)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	s := &servedRun{w: w, in: in, d: d}
	// Setup: from the first load request until every graph answers.
	// The first round installs, later rounds are same-name reloads, back
	// to back: a pause between rounds lets the vCPUs go idle, and waking
	// them made each round slower and less steady on a 2-vCPU VM. Rounds
	// go on for at least setupMinTime, so that the median spans more
	// than one moment of the host's drifting speed.
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < w.setupReps || time.Since(setupStart) < setupMinTime; i++ {
		var total time.Duration
		for _, gf := range in.Graphs {
			dt, err := d.load(gf.Name, in.path(gf))
			if err != nil {
				return nil, nil, fmt.Errorf("%w (bfsd: %s)", err, d.logTail())
			}
			total += dt
		}
		setups = append(setups, total.Seconds())
	}
	rep["setup_s_samples"] = setups
	// Warm-up, untimed: lazy per-generation caches and connections.
	if _, err := s.phase(time.Second, nil); err != nil {
		return nil, nil, err
	}
	s.reloadMs, s.reloadFailed = nil, 0

	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !cfg.trace {
		before, err := d.metrics()
		if err != nil {
			return nil, nil, err
		}
		if err := resetPeakRSS(d.pid()); err != nil {
			return nil, nil, err
		}
		p, err := s.phase(seconds(cfg.seconds), nil)
		if err != nil {
			return nil, nil, err
		}
		rss, err := procPeakRSSMB(d.pid())
		if err != nil {
			return nil, nil, err
		}
		after, err := d.metrics()
		if err != nil {
			return nil, nil, err
		}
		res.tally(p)
		res.Attempted += int64(len(s.reloadMs))
		res.Failed += s.reloadFailed
		m, diag := endToEnd(p, median(setups), rss)
		res.Metrics = m
		diag["lag_ms_p90"] = lagP90(p)
		if len(s.reloadMs) > 0 {
			diag["reload_ms_samples"] = len(s.reloadMs)
			diag["reload_ms_p50"] = median(s.reloadMs)
		}
		diag["bfsd_metric_deltas"] = metricDeltas(before, after)
		rep["phase"] = diag
		rep["per_kind"] = perKind(p)
		return res, rep, nil
	}

	tr := newTracer()
	before, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	untraced, err := s.phase(seconds(0.3*cfg.seconds), nil)
	if err != nil {
		return nil, nil, err
	}
	after, err := d.metrics()
	if err != nil {
		return nil, nil, err
	}
	traced, err := s.phase(seconds(0.3*cfg.seconds), tr)
	if err != nil {
		return nil, nil, err
	}
	res.tally(untraced)
	res.tally(traced)
	res.Attempted += int64(len(s.reloadMs))
	res.Failed += s.reloadFailed

	t0 := time.Now()
	l, err := openLayers(in, w, d)
	if err != nil {
		return nil, nil, err
	}
	defer l.close()
	var tot coreTotals
	// The replay's serve and bfsd legs run on as many callers as the
	// closed loop has connections; the open loop rarely has two
	// requests in flight, so its replay runs one at a time.
	callers := 1
	if w.rate == 0 {
		callers = w.conns
	}
	replay := l.replay(in.Queries, int(s.next.Load()), callers, seconds(0.4*cfg.seconds)-time.Since(t0), tr, &tot)
	tp := &traceRun{
		untraced: untraced, traced: traced, replay: replay, qs: in.Queries, tr: tr, l: l, tot: &tot,
		deltas: metricDeltas(before, after), http: untraced.samples,
	}
	tp.finish(cfg, res, rep)
	return res, rep, nil
}

// setupMinTime is the least time the setup rounds of a served
// workload take: one round lasts 2–20 ms.
const setupMinTime = 3 * time.Second

// phase runs the workload's loop for dur and returns its samples, with
// the wall time and bfsd's CPU time over the interval.
func (s *servedRun) phase(dur time.Duration, tr *tracer) (*phase, error) {
	host0 := readCPUTicks()
	cpu0, err := procCPU(s.d.pid())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var samples []sample
	if s.w.rate > 0 {
		samples = s.openLoop(dur, tr)
	} else {
		samples = s.closedLoop(dur, tr)
	}
	// The span runs until the last reply, so an open loop's goodput is
	// what was served per second, not the schedule's rate.
	span := time.Since(t0)
	cpu1, err := procCPU(s.d.pid())
	if err != nil {
		return nil, err
	}
	return &phase{samples: samples, span: span, cpu: cpu1 - cpu0, host: hostShares(host0, readCPUTicks())}, nil
}

// closedLoop keeps one request in flight per connection: each caller
// sends its next query when the previous reply has arrived and been
// checked.
func (s *servedRun) closedLoop(dur time.Duration, tr *tracer) []sample {
	qs := s.in.Queries
	t0 := time.Now()
	out := make([][]sample, s.w.conns)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for time.Since(t0) < dur {
				i := s.next.Add(1) - 1
				sp := tr.begin("e2e.http", -1, i, c)
				start := time.Now()
				smp := s.d.query(qs[i%int64(len(qs))])
				tr.end(sp)
				smp.at = start.Sub(t0)
				smp.lag = start.Sub(prev)
				prev = time.Now()
				out[c] = append(out[c], smp)
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// openJob is one scheduled open-loop send.
type openJob struct {
	due    time.Time
	q      *query // nil for a reload
	req    int64
	reload bool
}

// openLoop sends on a fixed schedule regardless of replies, over at
// most conns senders: when every sender is busy a due request waits,
// and its latency counts from when it was due. Every reloadEvery the
// schedule also reloads the first graph under its own name.
func (s *servedRun) openLoop(dur time.Duration, tr *tracer) []sample {
	qs := s.in.Queries
	first := s.in.Graphs[0]
	jobs := make(chan openJob)
	out := make([][]sample, s.w.conns)
	t0 := time.Now()
	var mu sync.Mutex // guards reloadMs, reloadFailed
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				start := time.Now()
				if j.reload {
					sp := tr.begin("e2e.reload", -1, j.req, c)
					dt, err := s.d.load(first.Name, s.in.path(first))
					tr.end(sp)
					mu.Lock()
					if err != nil {
						s.reloadFailed++
					}
					s.reloadMs = append(s.reloadMs, ms(dt))
					mu.Unlock()
					continue
				}
				sp := tr.begin("e2e.http", -1, j.req, c)
				smp := s.d.query(*j.q)
				tr.end(sp)
				smp.at = j.due.Sub(t0)
				smp.lag = start.Sub(j.due)
				smp.lat = time.Since(j.due)
				out[c] = append(out[c], smp)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / s.w.rate)
	nextReload := t0.Add(s.w.reloadEvery)
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if due.Sub(t0) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		if s.w.reloadEvery > 0 && !due.Before(nextReload) {
			jobs <- openJob{due: due, reload: true, req: -int64(k)}
			nextReload = nextReload.Add(s.w.reloadEvery)
		}
		i := s.next.Add(1) - 1
		jobs <- openJob{due: due, q: &qs[i%int64(len(qs))], req: i}
	}
	close(jobs)
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// perKind breaks a phase's latencies down by query kind.
func perKind(p *phase) map[string]any {
	lat := map[string][]float64{}
	for _, s := range p.samples {
		if s.ok {
			lat[s.kind] = append(lat[s.kind], ms(s.lat))
		}
	}
	out := map[string]any{}
	for k, xs := range lat {
		out[k] = map[string]any{"n": len(xs), "p50_ms": median(xs), "p90_ms": quantile(xs, 0.9)}
	}
	return out
}

// httpSamples keeps the replay samples that came from bfsd (they carry
// a response size).
func httpSamples(xs []sample) []sample {
	var out []sample
	for _, s := range xs {
		if s.bytes > 0 || s.shed {
			out = append(out, s)
		}
	}
	return out
}

// finish fills res with the per-layer metrics, counts the replay's
// answers, and saves the Chrome trace.
func (t *traceRun) finish(cfg *config, res *result, rep map[string]any) {
	res.Metrics = t.metrics(rep)
	res.tally(&phase{samples: t.replay})
	if t.tot.atomicRMW != 0 {
		res.Correct = false
	}
	// A gate whose control reads 0 cannot vouch for the core's 0.
	ctl, err := t.l.atomicControl(t.qs)
	rep["atomic_rmw_control"] = map[string]any{"kernel": "baseline2 " + string(baseline2.QueueCAS), "atomic_rmw": ctl}
	if err != nil || ctl == 0 {
		res.Correct = false
		rep["atomic_rmw_control_error"] = fmt.Sprintf("control counted %d atomic RMW (%v)", ctl, err)
	}
	path, err := t.tr.saveChrome(cfg.work, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
	if err != nil {
		rep["chrome_trace_error"] = err.Error()
		return
	}
	rep["chrome_trace"] = path
}

// traceRun is what a --trace 1 run measured.
type traceRun struct {
	kernel           bool
	untraced, traced *phase
	replay           []sample
	qs               []query // the seeded query pool
	tr               *tracer
	l                *layers
	tot              *coreTotals
	deltas           map[string]float64 // bfsd counters over the HTTP traffic measured
	http             []sample           // the HTTP samples behind deltas
}

// metrics derives every per-layer metric and adds the diagnostics
// (sample counts, self-time table, counter deltas) to rep.
func (t *traceRun) metrics(rep map[string]any) map[string]metric {
	tr := t.tr
	coreRun := tr.durations("core.RunGoal")
	coreP50 := median(coreRun)
	serveOv := pairedDiff(tr, "serve.query", "core.RunGoal")
	bfsdOv := pairedDiff(tr, "bfsd.http", "serve.query")
	e2eU := median(t.untraced.latencies())
	e2eT := median(t.traced.latencies())
	// The layers on the timed path: the kernel workloads call the core
	// alone; the served ones go through all three.
	explained := coreP50
	if !t.kernel {
		explained += serveOv + bfsdOv
	}

	var shed, bytes int64
	for _, s := range t.http {
		if s.shed {
			shed++
		}
		bytes += int64(s.bytes)
	}
	d := t.deltas
	batches := sumSeries(d, "optibfs_serve_fused_batches_total")
	lanes := sumSeries(d, "optibfs_serve_fused_lanes_total")
	solo := sumSeries(d, "optibfs_serve_fused_solo_dispatch_total")
	requests := sumSeries(d, "optibfs_serve_requests_total")

	all := &phase{samples: append(append(append([]sample(nil), t.untraced.samples...), t.traced.samples...), t.replay...)}
	attempted, ok, _, _, _ := all.counts()
	c := t.tot
	m := map[string]metric{
		"mmio.load_ms":                 {t.l.loadMs, "ms"},
		"mmio.load_mb_per_s":           {t.l.loadMBps, "MB/s"},
		"core.new_engine_ms":           {t.l.newEngineMs, "ms"},
		"core.run_ms_p50":              {coreP50, "ms"},
		"core.edges_scanned_per_query": {ratio(c.edgesScanned, c.runs), "count"},
		"core.useful_pop_ratio":        {ratio(c.reached, c.pops), "ratio"},
		"core.steal_success_ratio":     {ratio(c.stealSuccess, c.stealAttempts), "ratio"},
		"core.levels_per_query":        {ratio(c.levels, c.runs), "count"},
		"core.parallel_speedup":        {median(tr.durations("core.RunGoal.1worker")) / coreP50, "x"},
		"core.atomic_rmw":              {float64(c.atomicRMW), "count"},
		"serve.overhead_ms_p50":        {serveOv, "ms"},
		"serve.batch_lanes_mean":       {lanes / max(batches, 1), "count"},
		"serve.fused_share":            {(lanes - solo) / max(requests, 1), "ratio"},
		"serve.admit_wait_ms_p90":      {quantile(tr.durations("serve.Begin"), 0.9), "ms"},
		"serve.shed_ratio":             {ratio(shed, int64(len(t.http))), "ratio"},
		"serve.swap_ms":                {t.l.swapMs, "ms"},
		"bfsd.overhead_ms_p50":         {bfsdOv, "ms"},
		"bfsd.resp_bytes_per_query":    {ratio(bytes, int64(len(t.http))), "bytes"},
		"bfsd.unexplained_ms":          {e2eU - explained, "ms"},
		"gen.lag_ms_p90":               {lagP90(t.untraced), "ms"},
		"trace.overhead_pct":           {100 * (e2eT - e2eU) / e2eU, "%"},
		"fail_ratio":                   {ratio(attempted-ok, attempted), "ratio"},
	}
	rep["samples"] = map[string]any{
		"e2e_untraced":          len(t.untraced.latencies()),
		"e2e_traced":            len(t.traced.latencies()),
		"replay_core":           len(coreRun),
		"replay_serve":          len(tr.durations("serve.query")),
		"replay_bfsd":           len(tr.durations("bfsd.http")),
		"replay_analysis":       len(tr.durations("bfsd.http.analysis")),
		"http_for_bfsd_metrics": len(t.http),
	}
	rep["latency_split_ms"] = map[string]any{
		"e2e_p50_untraced": e2eU, "e2e_p50_traced": e2eT,
		"core": coreP50, "serve": serveOv, "bfsd": bfsdOv, "unexplained": e2eU - explained,
	}
	rows := tr.selfTimes()
	rep["self_time"] = rows
	fmt.Fprintf(os.Stderr, "%-24s %7s %12s %12s\n", "span", "calls", "p50_ms", "self_p50_ms")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-24s %7d %12.4f %12.4f\n", r.Name, r.Calls, r.P50ms, r.SelfP50)
	}
	if t.kernel {
		fmt.Fprintf(os.Stderr, "layer split of e2e p50 %.4f ms: core %.4f + unexplained %.4f\n",
			e2eU, coreP50, e2eU-explained)
	} else {
		fmt.Fprintf(os.Stderr, "layer split of e2e p50 %.4f ms: core %.4f + serve %.4f + bfsd %.4f + unexplained %.4f\n",
			e2eU, coreP50, serveOv, bfsdOv, e2eU-explained)
	}
	rep["bfsd_metric_deltas"] = d
	rep["core"] = c.report()
	rep["per_kind"] = perKind(t.untraced)
	return m
}
