// Command bfssoak runs the chaos-scheduler differential soak harness:
// it sweeps the BFS variants across graphs, perturbation profiles, and
// seeds, injecting delays at the optimistic protocols' racy points and
// auditing every run against the serial oracle and the protocol
// invariants. A failed run emits a minimal JSON repro artifact that
// -replay re-executes.
//
// Usage:
//
//	bfssoak                               # one full sweep, default suite
//	bfssoak -duration 30s                 # time-boxed smoke (CI profile)
//	bfssoak -profiles steal-storm,mixed -algos BFS_WL,BFS_WSL
//	bfssoak -replay soak-artifacts/repro-BFS_WL-steal-storm-….json
//	bfssoak -list                         # list perturbation profiles
//
// Exit status is 1 when any run broke an invariant (or a replayed
// artifact reproduced one), 2 for usage/harness errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"optibfs/internal/chaos"
	"optibfs/internal/core"
	"optibfs/internal/obs"
)

func main() {
	var (
		duration    = flag.Duration("duration", 0, "stop sweeping after this long (0 = exactly one sweep)")
		seeds       = flag.Int("seeds", 2, "derived option/seed sets per (graph, algorithm, profile) cell")
		workers     = flag.Int("workers", 0, "max workers per run (default: 2×GOMAXPROCS, clamped to [4,16])")
		seed        = flag.Uint64("seed", 0, "base seed for the sweep (0 = default)")
		profiles    = flag.String("profiles", "all", "comma-separated perturbation profiles (see -list)")
		algos       = flag.String("algos", "all", "comma-separated algorithms (e.g. BFS_WL,BFS_WSL)")
		artifacts   = flag.String("artifacts", "soak-artifacts", "directory for JSON repro artifacts (empty = don't write)")
		replay      = flag.String("replay", "", "re-execute one repro artifact instead of sweeping")
		list        = flag.Bool("list", false, "list perturbation profiles and exit")
		verbose     = flag.Bool("v", false, "log every run, not just failures")
		metricsAddr = flag.String("metrics-addr", "", "serve live /metrics, /debug/vars, /debug/pprof on this address while sweeping (empty = off)")
		hybrid      = flag.Bool("hybrid", false, "pin direction-optimizing mode on for every run (default: each run draws it 1-in-4; serial and fused cells always drop it)")
		registry    = flag.Bool("registry", false, "run the serve.Registry lifecycle soak (load/evict/query/swap/close interleavings) instead of the engine sweep")
		regRounds   = flag.Int("registry-rounds", 12, "registry soak rounds (every third round closes mid-flight)")
		regWorkers  = flag.Int("registry-workers", 8, "registry soak concurrent clients per round")
		regOps      = flag.Int("registry-ops", 16, "registry soak operations per client per round")
		regGraphs   = flag.Int("registry-graphs", 4, "registry soak named-graph population per round")
	)
	flag.Parse()
	if *registry {
		code, err := runRegistry(os.Stdout, *regRounds, *regWorkers, *regOps, *regGraphs, *seed, *profiles, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfssoak:", err)
			code = 2
		}
		os.Exit(code)
	}
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
			fmt.Fprintln(os.Stderr, "bfssoak:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "bfssoak: serving metrics at http://%s/metrics\n", srv.Addr)
	}
	// os.Exit skips defers: drain the metrics listener explicitly on
	// every exit path so the final scrape isn't dropped mid-response.
	code, err := run(os.Stdout, *duration, *seeds, *workers, *seed, *profiles, *algos, *artifacts, *replay, *list, *verbose, *hybrid, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfssoak:", err)
		code = 2
	}
	obs.CloseGracefully(srv, 2*time.Second)
	os.Exit(code)
}

// runRegistry executes the registry lifecycle soak and returns the
// process exit code: 1 when any invariant was violated, 0 on a clean
// sweep.
func runRegistry(w io.Writer, rounds, workers, ops, graphs int, seed uint64, profiles string, verbose bool) (int, error) {
	cfg := chaos.RegistrySoakConfig{
		Rounds:       rounds,
		Workers:      workers,
		OpsPerWorker: ops,
		Graphs:       graphs,
		Seed:         seed,
	}
	if verbose {
		cfg.Log = w
	}
	if profiles != "" && profiles != "all" {
		names := strings.Split(profiles, ",")
		if len(names) != 1 {
			return 0, fmt.Errorf("-registry takes at most one -profiles name (got %q)", profiles)
		}
		p, err := chaos.ProfileByName(strings.TrimSpace(names[0]))
		if err != nil {
			return 0, err
		}
		cfg.Profile = &p
	}
	rep, err := chaos.RegistrySoak(cfg)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, rep)
	if len(rep.Violations) > 0 {
		for i, v := range rep.Violations {
			if i >= 20 {
				fmt.Fprintf(w, "... and %d more violations\n", len(rep.Violations)-20)
				break
			}
			fmt.Fprintf(w, "violation %s\n", v)
		}
		return 1, nil
	}
	return 0, nil
}

// run executes the selected mode and returns the process exit code.
func run(w io.Writer, duration time.Duration, seeds, workers int, seed uint64,
	profiles, algos, artifacts, replay string, list, verbose, hybrid bool, reg *obs.Registry) (int, error) {
	if list {
		for _, p := range chaos.Profiles() {
			fmt.Fprintf(w, "%-12s yields=%d spin=%d prob=%v\n", p.Name, p.Yields, p.Spin, p.Prob)
		}
		return 0, nil
	}
	if replay != "" {
		r, err := chaos.LoadRepro(replay)
		if err != nil {
			return 0, err
		}
		vs, _, err := chaos.Replay(r)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "replayed %s on %s profile=%s: %d violations\n", r.Algorithm, r.Graph, r.Profile.Name, len(vs))
		if len(vs) == 0 {
			fmt.Fprintln(w, "no violations this replay (racy repros may need several attempts)")
			return 0, nil
		}
		for _, v := range vs {
			fmt.Fprintf(w, "violation %s\n", v)
		}
		return 1, nil
	}

	cfg := chaos.SoakConfig{
		Seeds:       seeds,
		Workers:     workers,
		Hybrid:      hybrid,
		BaseSeed:    seed,
		Duration:    duration,
		ArtifactDir: artifacts,
		Log:         w,
		Verbose:     verbose,
		Registry:    reg,
	}
	var err error
	if cfg.Profiles, err = selectProfiles(profiles); err != nil {
		return 0, err
	}
	if cfg.Algorithms, err = selectAlgos(algos); err != nil {
		return 0, err
	}
	rep, err := chaos.Soak(cfg)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, rep)
	if rep.Failures > 0 {
		return 1, nil
	}
	return 0, nil
}

// selectProfiles resolves the -profiles flag.
func selectProfiles(spec string) ([]chaos.Profile, error) {
	if spec == "" || spec == "all" {
		return nil, nil // SoakConfig default
	}
	var out []chaos.Profile
	for _, name := range strings.Split(spec, ",") {
		p, err := chaos.ProfileByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// selectAlgos resolves the -algos flag.
func selectAlgos(spec string) ([]core.Algorithm, error) {
	if spec == "" || spec == "all" {
		return nil, nil // SoakConfig default
	}
	var out []core.Algorithm
	for _, name := range strings.Split(spec, ",") {
		a := core.Algorithm(strings.TrimSpace(name))
		if !slices.Contains(chaos.SoakAlgorithms, a) {
			return nil, fmt.Errorf("unknown algorithm %q (want one of %v)", name, chaos.SoakAlgorithms)
		}
		out = append(out, a)
	}
	return out, nil
}
