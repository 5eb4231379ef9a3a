package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/obs"
	"optibfs/internal/rng"
)

// GraphSpec describes a generated soak graph compactly enough to be
// serialized into a repro artifact and regenerated bit-identically.
type GraphSpec struct {
	// Kind selects the generator: rmat | chunglu | layered | er |
	// complete | star.
	Kind string `json:"kind"`
	// N is the vertex count.
	N int32 `json:"n"`
	// M is the target edge count (ignored by complete and star).
	M int64 `json:"m,omitempty"`
	// Gamma is the chunglu power-law exponent.
	Gamma float64 `json:"gamma,omitempty"`
	// Layers is the layered generator's BFS depth.
	Layers int32 `json:"layers,omitempty"`
	// Seed drives the generator.
	Seed uint64 `json:"seed"`
}

// Generate builds the graph the spec describes.
func (s GraphSpec) Generate() (*graph.CSR, error) {
	switch s.Kind {
	case "rmat":
		return gen.Graph500RMAT(s.N, s.M, s.Seed, gen.Options{})
	case "chunglu":
		return gen.ChungLu(s.N, s.M, s.Gamma, s.Seed, gen.Options{})
	case "layered":
		return gen.LayeredRandom(s.N, s.M, s.Layers, s.Seed, gen.Options{})
	case "er":
		return gen.ErdosRenyi(s.N, s.M, s.Seed, gen.Options{})
	case "complete":
		return gen.Complete(s.N)
	case "star":
		return gen.Star(s.N)
	}
	return nil, fmt.Errorf("chaos: unknown graph kind %q", s.Kind)
}

func (s GraphSpec) String() string {
	return fmt.Sprintf("%s(n=%d,m=%d,seed=%d)", s.Kind, s.N, s.M, s.Seed)
}

// DefaultGraphs returns the standard soak suite: each entry targets a
// different protocol stressor — hub storms (chunglu), deep level
// machinery (layered), single-queue steal pressure (star), duplicate
// storms (complete), and a Graph500 mix (rmat).
func DefaultGraphs() []GraphSpec {
	return []GraphSpec{
		{Kind: "rmat", N: 4096, M: 32768, Seed: 1},
		{Kind: "chunglu", N: 4096, M: 32768, Gamma: 2.0, Seed: 2},
		{Kind: "layered", N: 3000, M: 15000, Layers: 60, Seed: 3},
		{Kind: "star", N: 2048, Seed: 4},
		{Kind: "complete", N: 256, Seed: 5},
	}
}

// RunOptions is the JSON-serializable subset of core.Options a soak
// run varies; it round-trips through repro artifacts. Decoding ignores
// fields it no longer knows, so artifacts written by older builds (a
// "persistent_workers" toggle, say) still replay.
type RunOptions struct {
	// Workers is the worker count (always explicit in artifacts).
	Workers int `json:"workers"`
	// SegmentSize fixes the dispatch segment length; 0 = adaptive.
	SegmentSize int `json:"segment_size,omitempty"`
	// Pools is the BFS_DL pool count.
	Pools int `json:"pools,omitempty"`
	// Sockets is the simulated NUMA socket count.
	Sockets int `json:"sockets,omitempty"`
	// SameSocketBias is the local-steal probability (0 meaningful).
	SameSocketBias float64 `json:"same_socket_bias"`
	// Phase2Stealing enables dynamic phase-2 dispatch.
	Phase2Stealing bool `json:"phase2_stealing,omitempty"`
	// ParentClaim enables the §IV-D duplicate filter.
	ParentClaim bool `json:"parent_claim,omitempty"`
	// TrackParents records BFS parents for tree validation.
	TrackParents bool `json:"track_parents,omitempty"`
	// PublishBlock is the batched-publication block size; 0 = default.
	PublishBlock int `json:"publish_block,omitempty"`
	// Reorder names the vertex-relabeling mode ("" | "degree" | "bfs").
	Reorder string `json:"reorder,omitempty"`
	// Hybrid enables direction-optimizing bottom-up levels
	// (core.Options.Hybrid); meaningless for the serial variant, which
	// rejects it.
	Hybrid bool `json:"hybrid,omitempty"`
	// StallTimeoutMillis arms the watchdog (core.Options.StallTimeout);
	// 0 leaves it off. Set by the soak for Disruptive profiles so forced
	// stalls are detected rather than hanging the sweep.
	StallTimeoutMillis int `json:"stall_timeout_millis,omitempty"`
	// Target is a goal-directed termination target, in core.Goal's
	// vertex+1 sentinel encoding (0 = none): the run stops at the level
	// barrier that settles vertex Target−1.
	Target int32 `json:"target,omitempty"`
	// MaxDepth bounds the run to that many closed levels (0 = none).
	MaxDepth int32 `json:"max_depth,omitempty"`
	// Seed drives victim/pool selection inside the run.
	Seed uint64 `json:"seed"`
}

// Core converts to core.Options (without a chaos hook or the goal,
// which is a run argument: see goal).
func (o RunOptions) Core() core.Options {
	return core.Options{
		Workers:        o.Workers,
		SegmentSize:    o.SegmentSize,
		Pools:          o.Pools,
		Sockets:        o.Sockets,
		SameSocketBias: o.SameSocketBias,
		Phase2Stealing: o.Phase2Stealing,
		ParentClaim:    o.ParentClaim,
		TrackParents:   o.TrackParents,
		PublishBlock:   o.PublishBlock,
		Reorder:        core.ReorderMode(o.Reorder),
		Hybrid:         o.Hybrid,
		StallTimeout:   time.Duration(o.StallTimeoutMillis) * time.Millisecond,
		Seed:           o.Seed,
	}
}

// goal returns the run's termination goal.
func (o RunOptions) goal() core.Goal { return core.Goal{Target: o.Target, MaxDepth: o.MaxDepth} }

// Repro is the minimal JSON artifact emitted when a soak run breaks an
// invariant: everything needed to re-execute the exact run — graph
// parameters, algorithm, options, perturbation profile, and both
// seeds — plus the violations observed when it was recorded.
type Repro struct {
	// Graph regenerates the input graph.
	Graph GraphSpec `json:"graph"`
	// Source is the BFS source vertex.
	Source int32 `json:"source"`
	// Algorithm is the variant that failed.
	Algorithm core.Algorithm `json:"algorithm"`
	// Options is the run configuration.
	Options RunOptions `json:"options"`
	// Profile is the perturbation profile that was active.
	Profile Profile `json:"profile"`
	// InjectionSeed seeds the injector's decision streams.
	InjectionSeed uint64 `json:"injection_seed"`
	// EngineRun records that the failure was observed on a reused
	// engine (SoakConfig.Engines); Replay then re-executes the run
	// several times on one engine so state-reuse bugs (stale epochs,
	// leaked queue contents) get a chance to reappear.
	EngineRun bool `json:"engine_run,omitempty"`
	// Violations are the invariant violations observed at record time.
	Violations []core.Violation `json:"violations"`
}

// WriteRepro writes the artifact into dir (created if needed) and
// returns its path.
func WriteRepro(dir string, r Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	name := fmt.Sprintf("repro-%s-%s-%016x.json", r.Algorithm, r.Profile.Name, r.Options.Seed)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	return path, nil
}

// LoadRepro reads an artifact written by WriteRepro.
func LoadRepro(path string) (Repro, error) {
	var r Repro
	data, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("chaos: %w", err)
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return r, nil
}

// Replay re-executes the run a repro artifact describes — same graph,
// options, profile, and seeds — and re-audits it, returning the
// violations observed this time (goroutine interleaving still varies,
// so a racy violation may take several replays to reappear).
func Replay(r Repro) ([]core.Violation, *core.Result, error) {
	g, err := r.Graph.Generate()
	if err != nil {
		return nil, nil, err
	}
	opt := r.Options.Core()
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	// Every replayed run takes the artifact's goal, so it terminates
	// where the recorded one did; core.Audit judges it under that goal.
	goal := r.Options.goal()
	if r.EngineRun {
		// The failure was observed on a reused engine: replay the run
		// three times on one engine so second-run-and-later bugs (state
		// that only a previous search could have corrupted) reproduce.
		// Typed recovery aborts (injected panics, forced stalls) are not
		// violations; a panic poisons the engine, so the loop rebuilds
		// it and keeps replaying, same as the soak does.
		e, err := core.NewEngine(g, r.Algorithm, opt)
		if err != nil {
			return nil, nil, err
		}
		defer func() { e.Close() }()
		var all []core.Violation
		var res *core.Result
		for i := 0; i < 3; i++ {
			inj := NewInjector(r.Profile, r.InjectionSeed, r.Options.Workers)
			e.SetChaos(inj)
			e.Reseed(opt.Seed)
			res, err = e.RunGoal(context.Background(), r.Source, goal)
			if err != nil {
				if !recoveryAbort(err) {
					return nil, nil, err
				}
				e.Close()
				e, err = core.NewEngine(g, r.Algorithm, opt)
				if err != nil {
					return nil, nil, err
				}
				continue
			}
			vs := core.Audit(g, r.Source, nil, goal, res)
			vs = append(vs, levelViolations(inj)...)
			all = append(all, vs...)
		}
		return all, res, nil
	}
	inj := NewInjector(r.Profile, r.InjectionSeed, r.Options.Workers)
	opt.Chaos = inj
	b, err := core.NewEngine(g, r.Algorithm, opt)
	if err != nil {
		return nil, nil, err
	}
	res, err := b.RunGoal(context.Background(), r.Source, goal)
	b.Close()
	if err != nil {
		if recoveryAbort(err) {
			return nil, res, nil
		}
		return nil, nil, err
	}
	vs := core.Audit(g, r.Source, nil, goal, res)
	vs = append(vs, levelViolations(inj)...)
	return vs, res, nil
}

// recoveryAbort reports whether err is one of the typed recovery
// aborts a Disruptive profile legitimately provokes — a recovered
// worker panic or a detected stall — as opposed to a harness failure.
func recoveryAbort(err error) bool {
	var wp *core.WorkerPanicError
	var se *core.StallError
	return errors.As(err, &wp) || errors.As(err, &se)
}

// levelViolations converts the injector's per-level audit findings:
// unconsumed input-queue slots from the slot audit, unpublished
// discoveries from the flush audit.
func levelViolations(in *Injector) []core.Violation {
	var vs []core.Violation
	for _, s := range in.Violations() {
		inv := "queue-slots-consumed"
		if strings.Contains(s, "unpublished") {
			inv = "publication-flushed"
		}
		vs = append(vs, core.Violation{Invariant: inv, Detail: s})
	}
	return vs
}

// SoakConfig configures a differential soak sweep. Zero fields select
// the documented defaults.
type SoakConfig struct {
	// Algorithms to sweep. Default: every core.Algorithm.
	Algorithms []core.Algorithm
	// Graphs to sweep. Default: DefaultGraphs.
	Graphs []GraphSpec
	// Profiles to sweep. Default: Profiles().
	Profiles []Profile
	// Seeds is how many derived option/seed sets run per
	// (graph, algorithm, profile) cell. Default 2.
	Seeds int
	// Workers caps the per-run worker count (runs draw from
	// [2, Workers]). Default: 2×GOMAXPROCS, clamped to [4, 16] —
	// oversubscription is deliberate, it gives the injector's yields
	// real interleavings to provoke.
	Workers int
	// Hybrid pins direction-optimizing mode on for every run instead of
	// the default one-in-four draw. Serial cells always drop it — the
	// serial variant rejects hybrid — so the differential baseline
	// stays in the sweep.
	Hybrid bool
	// BaseSeed derives every per-run seed. Default 0xb5f5c4a0.
	BaseSeed uint64
	// Duration stops the sweep (checked between runs) once exceeded;
	// rounds repeat with fresh derived seeds until then. 0 = exactly
	// one sweep.
	Duration time.Duration
	// Engines drives all runs of each (graph, algorithm) pair through
	// one shared core.Engine, created from the pair's first derived
	// option set and then only reseeded (and re-hooked with a fresh
	// injector) between runs. Option diversity per cell is narrower —
	// workers/pools/etc. are frozen at engine build — but the auditor's
	// invariants now also cover state-reuse bugs: a stale epoch stamp,
	// a queue slot leaked by a previous search, or counters that
	// survive a reset would all surface as oracle mismatches.
	Engines bool
	// ArtifactDir receives JSON repro artifacts for failed runs.
	// Empty = don't write artifacts.
	ArtifactDir string
	// Log receives progress and failure lines. Nil = discard.
	Log io.Writer
	// Verbose logs every run, not just failures and sweep summaries.
	Verbose bool
	// Registry, when non-nil, receives live sweep metrics after every
	// run (runs, failures, injections, stale steals, duplicate pops,
	// labeled {algo, profile}) so a long soak can be watched over the
	// exposition endpoint instead of only summarized at the end.
	Registry *obs.Registry
}

func (cfg SoakConfig) withDefaults() SoakConfig {
	if cfg.Algorithms == nil {
		cfg.Algorithms = core.Algorithms
	}
	if cfg.Graphs == nil {
		cfg.Graphs = DefaultGraphs()
	}
	if cfg.Profiles == nil {
		cfg.Profiles = Profiles()
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
		if cfg.Workers < 4 {
			cfg.Workers = 4
		}
		if cfg.Workers > 16 {
			cfg.Workers = 16
		}
	}
	if cfg.Workers < 2 {
		cfg.Workers = 2
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 0xb5f5c4a0
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return cfg
}

// SoakReport summarizes one Soak call.
type SoakReport struct {
	// Runs is the number of (graph, algorithm, profile, seed) runs.
	Runs int
	// EngineRuns is how many of those ran on a shared, reused engine
	// (SoakConfig.Engines).
	EngineRuns int
	// Failures is how many runs broke at least one invariant.
	Failures int
	// Injections is the total number of perturbations performed.
	Injections int64
	// StaleSteals counts the stale-steal events the sweep provoked —
	// the interleaving class the descriptor-leak fix is about.
	StaleSteals int64
	// Duplicates is the total duplicate work (Pops − Reached) the
	// optimistic runs absorbed.
	Duplicates int64
	// Truncated is how many runs a goal (target or depth bound)
	// terminated early at a level barrier; core.Audit holds those runs
	// to the oracle's closed levels instead of the full oracle.
	Truncated int
	// Panics is how many runs aborted with a recovered worker panic
	// (Disruptive profiles only; each one is a survived process crash).
	Panics int
	// Stalls is how many runs the watchdog aborted with a detected
	// stall (Disruptive profiles only).
	Stalls int
	// Artifacts lists the repro files written for failures.
	Artifacts []string
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// String renders a one-line summary.
func (r *SoakReport) String() string {
	engines := ""
	if r.EngineRuns > 0 {
		engines = fmt.Sprintf(" (%d on shared engines)", r.EngineRuns)
	}
	faults := ""
	if r.Panics > 0 || r.Stalls > 0 {
		faults = fmt.Sprintf(", %d recovered panics, %d detected stalls", r.Panics, r.Stalls)
	}
	goals := ""
	if r.Truncated > 0 {
		goals = fmt.Sprintf(", %d goal-truncated", r.Truncated)
	}
	return fmt.Sprintf("soak: %d runs%s, %d failures, %d injections, %d stale steals, %d duplicate pops%s%s, %s",
		r.Runs, engines, r.Failures, r.Injections, r.StaleSteals, r.Duplicates, faults, goals, r.Elapsed.Round(time.Millisecond))
}

// deriveOptions expands one per-run seed into a full option set,
// covering the configuration space (segment sizes, pools, NUMA
// simulation, claim/parent toggles) deterministically.
// n is the graph's vertex count: about a third of the runs draw a
// goal (a random termination target, a random depth bound, or both)
// so barrier-time early termination is crossed with every other
// dimension under injection.
func deriveOptions(r *rng.SplitMix64, maxWorkers int, n int32) RunOptions {
	o := RunOptions{
		Workers: 2 + int(r.Next()%uint64(maxWorkers-1)),
		Seed:    r.Next(),
	}
	switch r.Next() % 3 {
	case 0:
		o.SegmentSize = 1 // worst case: every slot is a fetch
	case 1:
		o.SegmentSize = 3
	}
	o.Pools = 1 + int(r.Next()%uint64(o.Workers))
	switch r.Next() % 3 {
	case 1:
		o.Sockets = 2
	case 2:
		o.Sockets = 4
	}
	if o.Sockets > 1 {
		o.SameSocketBias = float64(r.Next()%101) / 100
	}
	o.Phase2Stealing = r.Next()%2 == 0
	o.ParentClaim = r.Next()%4 == 0
	o.TrackParents = r.Next()%2 == 0
	// Batched publication block sizes, from the per-vertex ablation
	// baseline through boundary-stressing tiny blocks to a full-size
	// one; the remaining draws keep the default.
	switch r.Next() % 5 {
	case 0:
		o.PublishBlock = 1
	case 1:
		o.PublishBlock = 2
	case 2:
		o.PublishBlock = 64
	}
	switch r.Next() % 8 {
	case 0:
		o.Reorder = string(core.ReorderDegree)
	case 1:
		o.Reorder = string(core.ReorderBFS)
	}
	// Hybrid: a quarter of the runs take bottom-up levels through the
	// soak, crossing the direction machinery with every other dimension
	// (claims, publication blocks).
	o.Hybrid = r.Next()%4 == 0
	// Goals: a third of the runs terminate early — at a random target
	// vertex, a random (shallow) depth bound, or occasionally both, so
	// the whichever-fires-first rule is exercised too. The rest stay
	// unbounded and keep the full differential baseline.
	if n > 0 {
		switch r.Next() % 3 {
		case 0:
			o.Target = 1 + int32(r.Next()%uint64(n))
			if r.Next()%4 == 0 {
				o.MaxDepth = 1 + int32(r.Next()%8)
			}
		case 1:
			o.MaxDepth = 1 + int32(r.Next()%8)
		}
	}
	return o
}

// Soak runs the differential sweep: for every (graph, algorithm,
// profile, seed) cell it executes the variant under the injector and
// audits the result against the serial oracle and the protocol
// invariants, emitting a repro artifact per failure. It only returns
// an error for harness problems (generation, artifact I/O); invariant
// violations are reported in the SoakReport.
func Soak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &SoakReport{}
	expired := func() bool {
		return cfg.Duration > 0 && time.Since(start) >= cfg.Duration
	}

	type prepared struct {
		spec GraphSpec
		g    *graph.CSR
		want []int32
	}
	graphs := make([]prepared, 0, len(cfg.Graphs))
	for _, spec := range cfg.Graphs {
		g, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("chaos: generating %s: %w", spec, err)
		}
		graphs = append(graphs, prepared{spec, g, graph.ReferenceBFS(g, 0)})
	}

	// Engines mode: one shared engine per (graph, algorithm) pair,
	// built lazily from the pair's first derived option set and reused
	// by every later cell of the sweep. Disruptive profiles get their
	// own engine per pair (the watchdog arms via build-time options,
	// and their panics poison engines benign cells must not inherit).
	type engKey struct {
		gi   int
		algo core.Algorithm
		disr bool
	}
	type sharedEng struct {
		e    *core.Engine
		opts RunOptions
	}
	engines := make(map[engKey]*sharedEng)
	defer func() {
		for _, se := range engines {
			se.e.Close()
		}
	}()

	for round := 0; ; round++ {
		for gi, pg := range graphs {
			for _, algo := range cfg.Algorithms {
				for _, prof := range cfg.Profiles {
					for s := 0; s < cfg.Seeds; s++ {
						if expired() {
							rep.Elapsed = time.Since(start)
							return rep, nil
						}
						cell := rng.Mix64(cfg.BaseSeed ^ rng.Mix64(uint64(round)<<32|uint64(s)) ^
							rng.Mix64(uint64(len(pg.spec.Kind))+pg.spec.Seed) ^ hashString(string(algo)+prof.Name))
						r := rng.NewSplitMix64(cell)
						opts := deriveOptions(r, cfg.Workers, pg.g.NumVertices())
						if cfg.Hybrid {
							opts.Hybrid = true
						}
						if algo == core.Serial {
							// The serial variant rejects Hybrid at
							// construction; the draw (or pin) only
							// applies to the parallel cells.
							opts.Hybrid = false
						}
						// The cell's goal, captured before engines mode
						// swaps opts for the shared engine's frozen set.
						goal := opts.goal()
						injSeed := r.Next()
						if prof.Disruptive() {
							// Arm the watchdog so forced stalls abort with
							// a typed StallError instead of dragging the
							// sweep; 50ms is well under StallMillis.
							opts.StallTimeoutMillis = 50
						}

						var inj *Injector
						var res *core.Result
						var rerr error
						if cfg.Engines {
							key := engKey{gi, algo, prof.Disruptive()}
							se := engines[key]
							if se == nil {
								e, eerr := core.NewEngine(pg.g, algo, opts.Core())
								if eerr != nil {
									return nil, fmt.Errorf("chaos: engine for %s on %s: %w", algo, pg.spec, eerr)
								}
								se = &sharedEng{e: e, opts: opts}
								engines[key] = se
							}
							// The engine froze everything but the seed at
							// build time; this cell contributes a fresh
							// run seed, a fresh goal, and a fresh injector
							// (sized for the engine's worker count, not
							// this cell's).
							seed := opts.Seed
							opts = se.opts
							opts.Seed = seed
							opts.Target, opts.MaxDepth = goal.Target, goal.MaxDepth
							inj = NewInjector(prof, injSeed, opts.Workers)
							se.e.SetChaos(inj)
							se.e.Reseed(seed)
							res, rerr = se.e.RunGoal(context.Background(), 0, goal)
							if rerr != nil && !recoveryAbort(rerr) {
								return nil, fmt.Errorf("chaos: %s on %s (engine): %w", algo, pg.spec, rerr)
							}
							if rerr != nil {
								// A recovered panic poisons the engine:
								// discard it so the next cell of this pair
								// rebuilds from scratch (Close is safe on a
								// poisoned engine; its workers are parked).
								var wp *core.WorkerPanicError
								if errors.As(rerr, &wp) {
									se.e.Close()
									delete(engines, key)
								}
							}
							rep.EngineRuns++
						} else {
							inj = NewInjector(prof, injSeed, opts.Workers)
							copt := opts.Core()
							copt.Chaos = inj
							res, rerr = core.RunGoal(context.Background(), pg.g, 0, algo, copt, goal)
							if rerr != nil && !recoveryAbort(rerr) {
								return nil, fmt.Errorf("chaos: %s on %s: %w", algo, pg.spec, rerr)
							}
						}
						rep.Runs++
						rep.Injections += inj.Injections()
						if rerr != nil {
							// Typed recovery abort: the process survived
							// the injected fault and surfaced it as data.
							// The partial result is not audited (the run
							// did not finish), but it must exist.
							var wp *core.WorkerPanicError
							if errors.As(rerr, &wp) {
								rep.Panics++
							} else {
								rep.Stalls++
							}
							if res == nil {
								rep.Failures++
								fmt.Fprintf(cfg.Log, "FAIL %s on %s profile=%s: abort lost the partial result: %v\n",
									algo, pg.spec, prof.Name, rerr)
							}
							publishSoakAbort(cfg.Registry, algo, prof, rerr)
							if cfg.Verbose {
								fmt.Fprintf(cfg.Log, "run %s %s %s workers=%d seed=%#x: recovered abort: %v\n",
									algo, pg.spec, prof.Name, opts.Workers, opts.Seed, rerr)
							}
							continue
						}
						if res.Truncated {
							rep.Truncated++
						}
						rep.StaleSteals += res.Counters.StealStale
						if d := res.Duplicates(); d > 0 {
							// Hybrid runs can report negative
							// Duplicates() — bottom-up levels settle
							// vertices without pops — which would
							// silently shrink the sweep total.
							rep.Duplicates += d
						}

						vs := core.Audit(pg.g, 0, pg.want, goal, res)
						vs = append(vs, levelViolations(inj)...)
						publishSoakRun(cfg.Registry, algo, prof, inj, res, len(vs))
						if cfg.Verbose {
							fmt.Fprintf(cfg.Log, "run %s %s %s workers=%d seed=%#x: %d injections, %d dup, %d violations\n",
								algo, pg.spec, prof.Name, opts.Workers, opts.Seed, inj.Injections(), res.Duplicates(), len(vs))
						}
						if len(vs) == 0 {
							continue
						}
						rep.Failures++
						repro := Repro{
							Graph: pg.spec, Source: 0, Algorithm: algo,
							Options: opts, Profile: prof, InjectionSeed: injSeed,
							EngineRun:  cfg.Engines,
							Violations: vs,
						}
						fmt.Fprintf(cfg.Log, "FAIL %s on %s profile=%s: %v\n", algo, pg.spec, prof.Name, vs[0])
						if cfg.ArtifactDir != "" {
							path, err := WriteRepro(cfg.ArtifactDir, repro)
							if err != nil {
								return nil, err
							}
							rep.Artifacts = append(rep.Artifacts, path)
							fmt.Fprintf(cfg.Log, "  repro artifact: %s\n", path)
						}
					}
				}
			}
		}
		if cfg.Duration <= 0 || expired() {
			break
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// publishSoakRun feeds one audited run into the live registry. Called
// after the audit, entirely outside the run, so the sweep's timing and
// interleavings are unaffected.
func publishSoakRun(reg *obs.Registry, algo core.Algorithm, prof Profile, inj *Injector, res *core.Result, violations int) {
	if reg == nil {
		return
	}
	algoL := obs.L("algo", string(algo))
	profL := obs.L("profile", prof.Name)
	reg.Counter("optibfs_soak_runs_total", algoL, profL).Inc()
	reg.Counter("optibfs_soak_injections_total", algoL, profL).Add(inj.Injections())
	reg.Counter("optibfs_soak_stale_steals_total", algoL, profL).Add(res.Counters.StealStale)
	if d := res.Duplicates(); d > 0 {
		// Negative under hybrid (bottom-up settles without pops); a
		// counter must never go backwards.
		reg.Counter("optibfs_soak_duplicates_total", algoL, profL).Add(d)
	}
	if violations > 0 {
		reg.Counter("optibfs_soak_failures_total", algoL, profL).Inc()
	}
}

// publishSoakAbort feeds one recovered-abort run into the live
// registry, labeled by which typed error surfaced.
func publishSoakAbort(reg *obs.Registry, algo core.Algorithm, prof Profile, err error) {
	if reg == nil {
		return
	}
	kind := "stall"
	var wp *core.WorkerPanicError
	if errors.As(err, &wp) {
		kind = "panic"
	}
	reg.Counter("optibfs_soak_runs_total", obs.L("algo", string(algo)), obs.L("profile", prof.Name)).Inc()
	reg.Counter("optibfs_soak_recovered_aborts_total",
		obs.L("algo", string(algo)), obs.L("profile", prof.Name), obs.L("kind", kind)).Inc()
}

// hashString mixes a short label into a seed.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
