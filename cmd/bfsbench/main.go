// Command bfsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	bfsbench -exp table5a                 # Table V(a): Lonestar, 12 workers
//	bfsbench -exp table5b                 # Table V(b): Trestles, 32 workers
//	bfsbench -exp fig2a|fig2b             # Figure 2 scalability sweeps
//	bfsbench -exp fig3a|fig3b             # Figure 3 TEPS
//	bfsbench -exp table6                  # Table VI steal statistics
//	bfsbench -exp graphs                  # Table IV: the generated suite
//	bfsbench -exp machines                # Table III: machine profiles
//	bfsbench -exp all                     # everything above
//
// Common flags: -scale (graph size divisor, default 64; 1 = the
// paper's full sizes), -sources (sources averaged per cell), -seed,
// -csv (emit CSV instead of aligned text).
//
// With -metrics-addr the process serves live observability while the
// experiments run: /metrics (Prometheus text), /debug/vars (expvar),
// and /debug/pprof (profiles carry the engines' algo/worker/level-phase
// goroutine labels). -metrics-linger keeps the endpoint up after the
// experiments finish so a final scrape can collect the totals.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/costmodel"
	"optibfs/internal/harness"
	"optibfs/internal/obs"
)

func main() {
	var (
		exp           = flag.String("exp", "all", "experiment: table5a|table5b|fig2a|fig2b|fig3a|fig3b|table6|graphs|machines|hybrid|goal|all")
		scale         = flag.Int("scale", 64, "graph size divisor (1 = paper's full sizes)")
		sources       = flag.Int("sources", 8, "random sources averaged per (algorithm, graph) cell")
		seed          = flag.Uint64("seed", 0xb5f5, "experiment seed")
		reps          = flag.Int("reps", 5, "repetitions for table6")
		csv           = flag.Bool("csv", false, "emit CSV instead of aligned text")
		workers       = flag.Int("workers", 0, "override worker count (default: machine cores)")
		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address (e.g. localhost:9090; empty = off)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the experiments finish")
		reorderM      = flag.String("reorder", "", "vertex relabeling for the core engines: degree|bfs (baselines traverse as given)")
		hybrid        = flag.Bool("hybrid", false, "direction-optimizing mode for the core engines (bottom-up levels on large frontiers; baselines unaffected)")
	)
	flag.Parse()
	var reg *obs.Registry
	var srv *obs.Server
	if *metricsAddr != "" {
		reg = obs.New()
		reg.SetHelp("optibfs_up", "1 while the process is up.")
		reg.Gauge("optibfs_up").Set(1)
		obs.PublishExpvar("optibfs", reg)
		var err error
		srv, err = obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bfsbench: serving metrics at http://%s/metrics\n", srv.Addr)
	}
	// Every exit path below must drain the metrics listener explicitly:
	// os.Exit skips defers, which used to drop in-flight scrapes.
	code := 0
	if err := run(os.Stdout, *exp, *scale, *sources, *seed, *reps, *csv, *workers, *reorderM, *hybrid, reg); err != nil {
		fmt.Fprintln(os.Stderr, "bfsbench:", err)
		code = 1
	}
	if reg != nil && code == 0 && *metricsLinger > 0 {
		fmt.Fprintf(os.Stderr, "bfsbench: experiments done, metrics endpoint up for another %s\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
	obs.CloseGracefully(srv, 2*time.Second)
	os.Exit(code)
}

func run(w io.Writer, exp string, scale, sources int, seed uint64, reps int, csv bool, workers int, reorderMode string, hybrid bool, reg *obs.Registry) error {
	cfg := func(m costmodel.Machine) harness.Config {
		return harness.Config{
			Machine:  m,
			Workers:  workers,
			Sources:  sources,
			ScaleDiv: scale,
			Seed:     seed,
			Opt:      core.Options{Reorder: core.ReorderMode(reorderMode), Hybrid: hybrid},
			Registry: reg,
		}.WithDefaults()
	}
	emit := func(t *harness.Table, err error) error {
		if err != nil {
			return err
		}
		if csv {
			return t.RenderCSV(w)
		}
		return t.Render(w)
	}
	experiments := map[string]func() error{
		"table5a":    func() error { return emit(harness.Table5(nil, cfg(costmodel.Lonestar))) },
		"table5b":    func() error { return emit(harness.Table5(nil, cfg(costmodel.Trestles))) },
		"fig2a":      func() error { return emit(harness.Fig2(nil, cfg(costmodel.Lonestar))) },
		"fig2b":      func() error { return emit(harness.Fig2(nil, cfg(costmodel.Trestles))) },
		"fig3a":      func() error { return emit(harness.Fig3(nil, cfg(costmodel.Lonestar))) },
		"fig3b":      func() error { return emit(harness.Fig3(nil, cfg(costmodel.Trestles))) },
		"table6":     func() error { return emit(harness.Table6(nil, cfg(costmodel.Lonestar), reps)) },
		"graphs":     func() error { return emit(harness.GraphsTable(nil, cfg(costmodel.Lonestar))) },
		"machines":   func() error { return emit(harness.MachinesTable(nil)) },
		"extensions": func() error { return emit(harness.Extensions(nil, cfg(costmodel.Lonestar))) },
		"hybrid":     func() error { return emit(harness.HybridTable(nil, cfg(costmodel.Lonestar))) },
		"goal":       func() error { return emit(harness.GoalTable(nil, cfg(costmodel.Lonestar))) },
	}
	if exp == "all" {
		for _, name := range []string{"machines", "graphs", "table5a", "table5b", "fig2a", "fig2b", "fig3a", "fig3b", "table6", "extensions", "hybrid", "goal"} {
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := experiments[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return fn()
}
