package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"optibfs"
	"optibfs/internal/core"
	"optibfs/internal/costmodel"
	"optibfs/internal/graph"
	"optibfs/internal/stats"
)

// Table5 reproduces Table V: per-source running times (ms) of every
// algorithm on every suite graph for the configured machine.
// Both modeled (machine) and measured (this host) times are emitted;
// the modeled column is the Table V analogue (see DESIGN.md §5).
func Table5(w io.Writer, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		Title:   fmt.Sprintf("Table V — running times (modeled ms per source, %s, p=%d, scale 1/%d)", cfg.Machine.Name, cfg.Workers, cfg.ScaleDiv),
		Headers: append([]string{"algorithm"}, suiteNames()...),
		Notes: []string{
			"modeled ms from measured counters via internal/costmodel (this host cannot express multicore wall-clock)",
			fmt.Sprintf("averaged over %d random non-isolated sources per graph", cfg.Sources),
		},
	}
	cells := make(map[string][]string)
	for _, algo := range TableAlgos {
		cells[algo.Name] = []string{algo.Name}
	}
	for _, spec := range Suite {
		g, err := spec.Generate(cfg.ScaleDiv)
		if err != nil {
			return nil, err
		}
		for _, algo := range TableAlgos {
			cell, err := RunCell(g, algo, cfg)
			if err != nil {
				return nil, err
			}
			cells[algo.Name] = append(cells[algo.Name], fmtMS(cell.ModeledMS))
		}
	}
	for _, algo := range TableAlgos {
		t.AddRow(cells[algo.Name]...)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func suiteNames() []string {
	names := make([]string, len(Suite))
	for i, s := range Suite {
		names[i] = s.Name
	}
	return names
}

// Fig2 reproduces Figure 2: scalability of the lockfree variants on
// the Wikipedia (scale-free) graph as worker count grows to the
// machine's core count. Emits modeled ms and speedup per p.
func Fig2(w io.Writer, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	spec, err := SpecByName("wikipedia")
	if err != nil {
		return nil, err
	}
	g, err := spec.Generate(cfg.ScaleDiv)
	if err != nil {
		return nil, err
	}
	ps := workerSweep(cfg.Machine.Cores)
	headers := []string{"algorithm"}
	for _, p := range ps {
		headers = append(headers, fmt.Sprintf("p=%d", p))
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 2 — scalability on wikipedia (modeled ms, %s, scale 1/%d)", cfg.Machine.Name, cfg.ScaleDiv),
		Headers: headers,
		Notes:   []string{"second row per algorithm: speedup vs p=1"},
	}
	for _, algo := range LockfreeAlgos {
		times := make([]float64, 0, len(ps))
		for _, p := range ps {
			c := cfg
			c.Workers = p
			cell, err := RunCell(g, algo, c)
			if err != nil {
				return nil, err
			}
			times = append(times, cell.ModeledMS)
		}
		row := []string{algo.Name}
		speed := []string{algo.Name + " (speedup)"}
		for _, ms := range times {
			row = append(row, fmtMS(ms))
			speed = append(speed, fmt.Sprintf("%.2fx", times[0]/ms))
		}
		t.AddRow(row...)
		t.AddRow(speed...)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// workerSweep returns the p values for a scalability sweep up to cores.
func workerSweep(cores int) []int {
	ps := []int{1, 2, 4}
	for p := 8; p < cores; p += 4 {
		ps = append(ps, p)
	}
	out := ps[:0]
	for _, p := range ps {
		if p < cores {
			out = append(out, p)
		}
	}
	return append(out, cores)
}

// Fig3 reproduces Figure 3: TEPS (traversed edges per modeled second)
// of every algorithm on the real-world suite graphs.
func Fig3(w io.Writer, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	realWorld := []string{"cage15", "cage14", "freescale", "wikipedia", "kkt-power"}
	t := &Table{
		Title:   fmt.Sprintf("Figure 3 — TEPS on real-world graphs (modeled, %s, p=%d, scale 1/%d)", cfg.Machine.Name, cfg.Workers, cfg.ScaleDiv),
		Headers: append([]string{"algorithm"}, realWorld...),
	}
	rows := make(map[string][]string)
	for _, algo := range TableAlgos {
		rows[algo.Name] = []string{algo.Name}
	}
	for _, name := range realWorld {
		spec, err := SpecByName(name)
		if err != nil {
			return nil, err
		}
		g, err := spec.Generate(cfg.ScaleDiv)
		if err != nil {
			return nil, err
		}
		for _, algo := range TableAlgos {
			cell, err := RunCell(g, algo, cfg)
			if err != nil {
				return nil, err
			}
			rows[algo.Name] = append(rows[algo.Name], fmtTEPS(cell.ModeledTEPS))
		}
	}
	for _, algo := range TableAlgos {
		t.AddRow(rows[algo.Name]...)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Table6 reproduces Table VI: steal-attempt statistics of BFS_WS vs
// BFS_WSL on the Wikipedia graph, averaged over `Reps` independent
// repetitions of Sources runs.
func Table6(w io.Writer, cfg Config, reps int) (*Table, error) {
	cfg = cfg.WithDefaults()
	if reps <= 0 {
		reps = 5
	}
	spec, err := SpecByName("wikipedia")
	if err != nil {
		return nil, err
	}
	g, err := spec.Generate(cfg.ScaleDiv)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Table VI — steal statistics on wikipedia (%s, p=%d, %d sources x %d reps)",
			cfg.Machine.Name, cfg.Workers, cfg.Sources, reps),
		Headers: []string{"program", "modeled-ms", "attempts", "victim-locked", "victim-idle", "too-small", "stale", "invalid", "failed-total", "successful"},
	}
	for _, algo := range []AlgoSpec{
		algoSpec(optibfs.BFSWS),
		algoSpec(optibfs.BFSWSL),
	} {
		var agg stats.Counters
		var modeled float64
		runs := 0
		for rep := 0; rep < reps; rep++ {
			c := cfg
			c.Seed = cfg.Seed + uint64(rep)*0x1234567
			cell, err := RunCell(g, algo, c)
			if err != nil {
				return nil, err
			}
			agg.Add(&cell.Counters)
			modeled += cell.ModeledMS
			runs += cell.Runs
		}
		attempts := agg.StealAttempts
		na := func(v int64, lockfreeOnly, lockedOnly bool) string {
			isLockfree := algo.algo.Lockfree()
			if (lockfreeOnly && !isLockfree) || (lockedOnly && isLockfree) {
				return "N/A"
			}
			return fmt.Sprintf("%s (%s)", fmtCount(v), fmtPct(v, attempts))
		}
		t.AddRow(
			algo.Name,
			fmtMS(modeled/float64(reps)),
			fmtCount(attempts)+" (100%)",
			na(agg.StealVictimLocked, false, true),
			fmt.Sprintf("%s (%s)", fmtCount(agg.StealVictimIdle), fmtPct(agg.StealVictimIdle, attempts)),
			fmt.Sprintf("%s (%s)", fmtCount(agg.StealTooSmall), fmtPct(agg.StealTooSmall, attempts)),
			na(agg.StealStale, true, false),
			na(agg.StealInvalid, true, false),
			fmt.Sprintf("%s (%s)", fmtCount(agg.FailedSteals()), fmtPct(agg.FailedSteals(), attempts)),
			fmt.Sprintf("%s (%s)", fmtCount(agg.StealSuccess), fmtPct(agg.StealSuccess, attempts)),
		)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Extensions benchmarks this repository's implementations of the
// paper's future-work sketches (BFS_EL edge partitioning,
// direction-optimizing traversal) against the paper's best lockfree
// variants on the full suite. Not a paper artifact — an extension.
func Extensions(w io.Writer, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	algos := []AlgoSpec{algoSpec(optibfs.BFSCL), algoSpec(optibfs.BFSWSL)}
	algos = append(algos, ExtensionAlgos...)
	t := &Table{
		Title:   fmt.Sprintf("Extensions — future-work variants vs the paper's lockfree BFS (modeled ms, %s, p=%d, scale 1/%d)", cfg.Machine.Name, cfg.Workers, cfg.ScaleDiv),
		Headers: append([]string{"algorithm"}, suiteNames()...),
		Notes:   []string{"BFS_EL and DirectionOptimizing implement the paper's §IV-D / §II sketches; not part of Table V"},
	}
	rows := make(map[string][]string)
	for _, algo := range algos {
		rows[algo.Name] = []string{algo.Name}
	}
	for _, spec := range Suite {
		g, err := spec.Generate(cfg.ScaleDiv)
		if err != nil {
			return nil, err
		}
		for _, algo := range algos {
			cell, err := RunCell(g, algo, cfg)
			if err != nil {
				return nil, err
			}
			rows[algo.Name] = append(rows[algo.Name], fmtMS(cell.ModeledMS))
		}
	}
	for _, algo := range algos {
		t.AddRow(rows[algo.Name]...)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// HybridTable compares the in-core direction-optimizing mode against
// plain BFS_WSL on every suite graph: measured wall-clock MTEPS on this
// host (harmonic-mean convention), plus the hybrid's speedup. This is a
// measured experiment, not a modeled one — the cost model has no
// bottom-up shape, and the claim under test is about real conversion
// and scan costs.
//
// Measurement is paired: per graph, both variants share one source set
// and one warmed runner each, and every repetition times each
// variant's full source sweep back-to-back, alternating the order by
// repetition parity. Reported MTEPS are medians over repetitions, and
// the ratio row is the median of the per-repetition time ratios.
// Host-frequency and GC drift over a run's lifetime moves adjacent
// blocks together, so paired ratios survive it; the naive
// one-contiguous-block-per-variant design this replaced could swing a
// ratio ±20% between invocations on a busy host.
func HybridTable(w io.Writer, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	variants := []struct {
		name   string
		algo   AlgoSpec
		hybrid bool
	}{
		{"BFS_WSL", algoSpec(optibfs.BFSWSL), false},
		{"BFS_WSL+hybrid", algoSpec(optibfs.BFSWSL), true},
	}
	// Odd so every median is an actual observation, high enough that
	// one descheduled repetition cannot reach the middle ranks.
	const reps = 9
	t := &Table{
		Title: fmt.Sprintf("Hybrid — in-core direction optimization vs plain BFS_WSL (measured MTEPS, p=%d, scale 1/%d)",
			cfg.Workers, cfg.ScaleDiv),
		Headers: append([]string{"algorithm"}, suiteNames()...),
		Notes: []string{
			"measured wall-clock on this host, harmonic-mean TEPS across sources",
			fmt.Sprintf("paired runs: each of %d repetitions times every variant back-to-back (order alternating); MTEPS are medians over repetitions", reps),
			"hybrid/plain is the median of per-repetition time ratios (>1 = in-core hybrid faster), so it may differ slightly from the MTEPS quotient",
		},
	}
	rows := make([][]string, len(variants)+1)
	for i, v := range variants {
		rows[i] = []string{v.name}
	}
	rows[len(variants)] = []string{"hybrid/plain"}
	for _, spec := range Suite {
		g, err := spec.Generate(cfg.ScaleDiv)
		if err != nil {
			return nil, err
		}
		// One shared source set: paired ratios are only meaningful if
		// every variant sweeps the identical searches.
		sources := PickSources(g, cfg.Sources, cfg.Seed)
		runners := make([]*optibfs.Engine, len(variants))
		edges := make([]int64, len(variants))
		for i, v := range variants {
			opt := cfg.Opt
			opt.Workers = cfg.Workers
			opt.Hybrid = v.hybrid
			r, err := v.algo.NewRunner(g, opt)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", v.name, spec.Name, err)
			}
			defer r.Close()
			runners[i] = r
			// Warm pass: faults pooled state in, captures the sweep's
			// edge total for the TEPS denominators, and feeds the
			// registry exactly like RunCell does (publishing stays
			// outside every timed block below).
			shape := v.algo.Shape()
			pub := newCellPublisher(cfg.Registry, v.name)
			for k, src := range sources {
				r.Reseed(cfg.Seed + uint64(k)*0x9e37 + 1)
				start := time.Now()
				res, err := r.Run(src)
				if err != nil {
					return nil, fmt.Errorf("%s on %s source %d: %w", v.name, spec.Name, src, err)
				}
				elapsed := time.Since(start).Seconds()
				edges[i] += res.EdgesTraversed
				pub.run(res, elapsed, costmodel.Modeled(cfg.Machine, shape, res))
			}
		}
		block := func(r *optibfs.Engine) (float64, error) {
			start := time.Now()
			for k, src := range sources {
				r.Reseed(cfg.Seed + uint64(k)*0x9e37 + 1)
				if _, err := r.Run(src); err != nil {
					return 0, err
				}
			}
			return time.Since(start).Seconds(), nil
		}
		times := make([][]float64, len(variants))
		for rep := 0; rep < reps; rep++ {
			for j := range variants {
				i := j
				if rep%2 == 1 {
					i = len(variants) - 1 - j
				}
				sec, err := block(runners[i])
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", variants[i].name, spec.Name, err)
				}
				times[i] = append(times[i], sec)
			}
		}
		ratio := func(num, den int) float64 {
			rs := make([]float64, reps)
			for rep := range rs {
				rs[rep] = times[num][rep] / times[den][rep]
			}
			return stats.Summarize(rs).Median
		}
		for i := range variants {
			rows[i] = append(rows[i], fmt.Sprintf("%.1f", float64(edges[i])/stats.Summarize(times[i]).Median/1e6))
		}
		rows[len(variants)] = append(rows[len(variants)], fmt.Sprintf("%.2fx", ratio(0, 1)))
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// GoalTable measures goal-directed traversal against the
// full-BFS-then-lookup baseline across the suite: per graph, one
// warmed BFS_WSL engine answers the same source set three ways —
// unbounded, s–t to a mid-depth target (the level barrier that settles
// the target terminates the run), and a 4-hop neighborhood bound. The
// targets come from a warm full sweep (the first vertex at half the
// source's explored depth), so every s–t query does real work instead
// of stopping at level one.
//
// Measurement is paired exactly like HybridTable: every repetition
// times each variant's full source sweep back-to-back in alternating
// order, latencies are medians over repetitions, and the speedup rows
// are medians of the per-repetition time ratios, which cancels
// host-frequency and GC drift. The edge-fraction row is the traversal
// work the goal runs actually did (from the warm sweeps), the
// mechanism behind the latency wins.
func GoalTable(w io.Writer, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	algo := algoSpec(optibfs.BFSWSL)
	const reps = 9
	const hop = 4
	t := &Table{
		Title: fmt.Sprintf("Goal-directed traversal — s–t and depth-bounded vs full BFS (BFS_WSL, p=%d, scale 1/%d)",
			cfg.Workers, cfg.ScaleDiv),
		Headers: append([]string{"measurement"}, suiteNames()...),
		Notes: []string{
			"one warmed engine per graph; every query validated against the closed-level oracle contract in the warm pass",
			fmt.Sprintf("paired runs: each of %d repetitions times all three variants back-to-back (order alternating); latencies are medians over repetitions", reps),
			"speedup rows are medians of per-repetition time ratios (>1 = goal run faster), edge fraction is goal-run edges / full-run edges",
		},
	}
	rows := [][]string{
		{"full BFS (ms/query)"},
		{"s-t mid-depth (ms/query)"},
		{fmt.Sprintf("%d-hop (ms/query)", hop)},
		{"s-t speedup (paired)"},
		{fmt.Sprintf("%d-hop speedup (paired)", hop)},
		{"s-t edge fraction"},
	}
	ctx := context.Background()
	for _, gs := range Suite {
		g, err := gs.Generate(cfg.ScaleDiv)
		if err != nil {
			return nil, err
		}
		sources := PickSources(g, cfg.Sources, cfg.Seed)
		opt := cfg.Opt
		opt.Workers = cfg.Workers
		r, err := algo.NewRunner(g, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gs.Name, err)
		}
		defer r.Close()

		// Warm pass: full sweep faults pooled state in, yields the edge
		// totals, and picks each source's mid-depth target.
		dsts := make([]int32, len(sources))
		var fullEdges, stEdges int64
		for i, src := range sources {
			r.Reseed(cfg.Seed + uint64(i)*0x9e37 + 1)
			res, err := r.Run(src)
			if err != nil {
				return nil, fmt.Errorf("%s source %d: %w", gs.Name, src, err)
			}
			fullEdges += res.EdgesTraversed
			depth := res.Levels / 2
			if depth < 1 {
				depth = 1
			}
			dsts[i] = src
			for v, d := range res.Dist {
				if d == depth {
					dsts[i] = int32(v)
					break
				}
			}
		}
		// Warm goal sweep: edge totals plus the correctness check — the
		// target must be settled exactly in the truncated result.
		for i, src := range sources {
			r.Reseed(cfg.Seed + uint64(i)*0x9e37 + 1)
			res, err := r.RunGoal(ctx, src, core.GoalTo(dsts[i]))
			if err != nil {
				return nil, fmt.Errorf("%s s-t source %d: %w", gs.Name, src, err)
			}
			stEdges += res.EdgesTraversed
			if res.Dist[dsts[i]] == graph.Unreached {
				return nil, fmt.Errorf("%s: s-t run from %d left target %d unsettled", gs.Name, src, dsts[i])
			}
		}

		block := func(goal func(i int) core.Goal) func() (float64, error) {
			return func() (float64, error) {
				start := time.Now()
				for i, src := range sources {
					r.Reseed(cfg.Seed + uint64(i)*0x9e37 + 1)
					var err error
					if goal == nil {
						_, err = r.Run(src)
					} else {
						_, err = r.RunGoal(ctx, src, goal(i))
					}
					if err != nil {
						return 0, err
					}
				}
				return time.Since(start).Seconds(), nil
			}
		}
		blocks := []func() (float64, error){
			block(nil),
			block(func(i int) core.Goal { return core.GoalTo(dsts[i]) }),
			block(func(int) core.Goal { return core.Goal{MaxDepth: hop} }),
		}
		times := make([][]float64, len(blocks))
		for rep := 0; rep < reps; rep++ {
			for j := range blocks {
				i := j
				if rep%2 == 1 {
					i = len(blocks) - 1 - j
				}
				sec, err := blocks[i]()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", gs.Name, err)
				}
				times[i] = append(times[i], sec)
			}
		}
		speedup := func(den int) float64 {
			rs := make([]float64, reps)
			for rep := range rs {
				rs[rep] = times[0][rep] / times[den][rep]
			}
			return stats.Summarize(rs).Median
		}
		perQueryMS := func(i int) float64 {
			return stats.Summarize(times[i]).Median / float64(len(sources)) * 1e3
		}
		rows[0] = append(rows[0], fmt.Sprintf("%.3f", perQueryMS(0)))
		rows[1] = append(rows[1], fmt.Sprintf("%.3f", perQueryMS(1)))
		rows[2] = append(rows[2], fmt.Sprintf("%.3f", perQueryMS(2)))
		rows[3] = append(rows[3], fmt.Sprintf("%.2fx", speedup(1)))
		rows[4] = append(rows[4], fmt.Sprintf("%.2fx", speedup(2)))
		rows[5] = append(rows[5], fmt.Sprintf("%.2f", float64(stEdges)/float64(fullEdges)))
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// GraphsTable reproduces Table IV: the generated suite with its actual
// (scaled) sizes and BFS-explored diameters.
func GraphsTable(w io.Writer, cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		Title:   fmt.Sprintf("Table IV — graph suite (generated stand-ins, scale 1/%d)", cfg.ScaleDiv),
		Headers: []string{"graph", "n", "m", "avg-deg", "max-deg", "bfs-diameter", "paper-diameter", "description"},
	}
	for _, spec := range Suite {
		g, err := spec.Generate(cfg.ScaleDiv)
		if err != nil {
			return nil, err
		}
		src := PickSources(g, 1, cfg.Seed)[0]
		dist := graph.ReferenceBFS(g, src)
		maxDeg, _ := g.MaxDegree()
		t.AddRow(
			spec.Name,
			fmtCount(int64(g.NumVertices())),
			fmtCount(g.NumEdges()),
			fmt.Sprintf("%.1f", g.AvgDegree()),
			fmtCount(maxDeg),
			fmt.Sprintf("%d", graph.Eccentricity(dist)),
			fmt.Sprintf("%d", spec.Diameter),
			spec.Description,
		)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MachinesTable reproduces Table III: the modeled machine profiles.
func MachinesTable(w io.Writer) (*Table, error) {
	t := &Table{
		Title:   "Table III — simulated machine profiles (see internal/costmodel)",
		Headers: []string{"machine", "cores", "t-edge", "t-lock", "t-wait/worker", "t-steal", "t-rmw", "t-barrier"},
	}
	for _, m := range []costmodel.Machine{costmodel.Lonestar, costmodel.Trestles} {
		t.AddRow(
			m.Name,
			fmt.Sprintf("%d", m.Cores),
			fmt.Sprintf("%.2gns", m.TEdge*1e9),
			fmt.Sprintf("%.2gns", m.TLock*1e9),
			fmt.Sprintf("%.2gns", m.TWait*1e9),
			fmt.Sprintf("%.2gns", m.TSteal*1e9),
			fmt.Sprintf("%.2gns", m.TRMW*1e9),
			fmt.Sprintf("%.2gus", (m.TBarrierBase+float64(m.Cores)*m.TBarrierPerCore)*1e6),
		)
	}
	if w != nil {
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}
