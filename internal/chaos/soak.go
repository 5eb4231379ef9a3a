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
	"slices"
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

// Repro describes one soak cell, and is the minimal JSON artifact
// emitted when the cell breaks an invariant: everything needed to
// re-execute it — graph parameters, algorithm, options, lanes,
// perturbation profile, and both seeds — plus the violations observed
// when it was recorded. A cell runs one engine twice (see Soak); the
// second run's seeds derive from these, so the artifact covers both.
// Decoding ignores fields it no longer knows ("engine_run", say).
type Repro struct {
	// Graph regenerates the input graph.
	Graph GraphSpec `json:"graph"`
	// Source is the BFS source vertex of a solo cell.
	Source int32 `json:"source"`
	// Sources are the lane sources of a fused (core.MSBFSL) cell.
	Sources []int32 `json:"sources,omitempty"`
	// Goals are the fused lanes' goals, one per source.
	Goals []core.Goal `json:"goals,omitempty"`
	// Algorithm is the variant that failed.
	Algorithm core.Algorithm `json:"algorithm"`
	// Options is the run configuration; a solo cell's goal is its
	// Target and MaxDepth.
	Options RunOptions `json:"options"`
	// Profile is the perturbation profile that was active.
	Profile Profile `json:"profile"`
	// InjectionSeed seeds the injector's decision streams.
	InjectionSeed uint64 `json:"injection_seed"`
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

// Replay re-executes the cell a repro artifact describes — same graph,
// options, lanes, profile, and seeds, on one engine run twice as in
// Soak — and re-audits it, returning the violations observed this time
// and the first run's Result (goroutine interleaving still varies, so a
// racy violation may take several replays to reappear). The Result's
// scalar fields are the first run's; its slices alias pooled state the
// second run reused.
func Replay(r Repro) ([]core.Violation, *core.Result, error) {
	g, err := r.Graph.Generate()
	if err != nil {
		return nil, nil, err
	}
	runs, err := runCell(g, oracles(g), r)
	if err != nil {
		return nil, nil, err
	}
	var vs []core.Violation
	for _, cr := range runs {
		vs = append(vs, cr.vs...)
	}
	return vs, runs[0].res, nil
}

// cellRun is one audited run of a cell.
type cellRun struct {
	// res is the run's Result, copied by value so it survives the
	// cell's next run; a fused run's Result sums its lanes' Reached.
	res *core.Result
	// err is the typed recovery abort the run ended in, or nil.
	err error
	inj *Injector
	vs  []core.Violation
	// audited counts the results judged: 1 for a solo run, the lane
	// count for a fused one; an aborted run's are partial results.
	audited int
}

// runCell executes the cell r describes on one engine lifetime. Run 1
// takes the cell's goal (or lane goals) and injector. Run 2 reuses the
// engine, stalled or not, unbounded, with a run seed and an injector
// seed derived from the cell's by rng.Mix64 (a fused cell draws fresh
// lanes from its run seed), so state a previous search left behind —
// a stale epoch stamp, a leaked queue slot — shows as an oracle
// mismatch. A panic poisons the engine: then there is no run 2. Every
// finished run is audited against the serial oracle under its goal,
// every aborted run's partial result by core.AuditPartial. Errors are
// harness problems only.
func runCell(g *graph.CSR, ref func(int32) []int32, r Repro) ([]cellRun, error) {
	opt := r.Options.Core()
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	runSeed := rng.Mix64(opt.Seed)
	var run func(reuse bool, inj *Injector) cellRun
	if r.Algorithm == core.MSBFSL {
		e, err := core.NewMSEngine(g, opt)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s on %s: %w", r.Algorithm, r.Graph, err)
		}
		defer e.Close()
		run = func(reuse bool, inj *Injector) cellRun {
			srcs, goals := r.Sources, r.Goals
			if reuse {
				srcs, _ = drawLanes(rng.NewSplitMix64(runSeed), g.NumVertices())
				goals = nil
			}
			if goals == nil {
				goals = make([]core.Goal, len(srcs)) // every lane unbounded
			}
			e.SetChaos(inj)
			ms, err := e.RunGoals(context.Background(), srcs, goals)
			cr := cellRun{err: err, inj: inj}
			if ms == nil {
				return cr
			}
			cr.res, cr.audited = &core.Result{Levels: ms.Levels}, len(srcs)
			for i := range srcs {
				lr := ms.Lane(i)
				cr.res.Reached += lr.Reached
				cr.res.Truncated = cr.res.Truncated || lr.Truncated
				var lvs []core.Violation
				if err != nil {
					lvs = core.AuditPartial(g, lr.Src, ref(lr.Src), lr.AsResult())
				} else {
					lvs = core.AuditAnswer(g, lr.Src, ref(lr.Src), goals[i], lr.AsResult())
				}
				for _, v := range lvs {
					v.Detail = fmt.Sprintf("lane %d src=%d: %s", i, lr.Src, v.Detail)
					cr.vs = append(cr.vs, v)
				}
			}
			return cr
		}
	} else {
		e, err := core.NewEngine(g, r.Algorithm, opt)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s on %s: %w", r.Algorithm, r.Graph, err)
		}
		defer e.Close()
		run = func(reuse bool, inj *Injector) cellRun {
			goal := r.Options.goal()
			if reuse {
				e.Reseed(runSeed)
				goal = core.Goal{}
			}
			e.SetChaos(inj)
			res, err := e.RunGoal(context.Background(), r.Source, goal)
			cr := cellRun{err: err, inj: inj}
			if res == nil {
				return cr
			}
			copied := *res
			cr.res, cr.audited = &copied, 1
			if err != nil {
				cr.vs = core.AuditPartial(g, r.Source, ref(r.Source), res)
			} else {
				cr.vs = core.Audit(g, r.Source, ref(r.Source), goal, res)
			}
			return cr
		}
	}
	var runs []cellRun
	for i, seed := range []uint64{r.InjectionSeed, rng.Mix64(r.InjectionSeed)} {
		cr := run(i == 1, NewInjector(r.Profile, seed, opt.Workers))
		if cr.err != nil && !recoveryAbort(cr.err) {
			return nil, fmt.Errorf("chaos: %s on %s: %w", r.Algorithm, r.Graph, cr.err)
		}
		switch {
		case cr.err == nil:
			cr.vs = append(cr.vs, levelViolations(cr.inj)...)
		case cr.res == nil:
			cr.vs = append(cr.vs, core.Violation{Invariant: "partial-result-returned",
				Detail: fmt.Sprintf("abort lost the partial result: %v", cr.err)})
		}
		runs = append(runs, cr)
		if isPanic(cr.err) {
			break
		}
	}
	return runs, nil
}

// oracles returns graph.ReferenceBFS of g per source, cached: a fused
// cell audits up to 64 lanes per run, and sources repeat across cells.
// The cache is emptied at 512 entries, which bounds a long soak's memory.
func oracles(g *graph.CSR) func(src int32) []int32 {
	cache := map[int32][]int32{}
	return func(src int32) []int32 {
		d, ok := cache[src]
		if !ok {
			if len(cache) >= 512 {
				clear(cache)
			}
			d = graph.ReferenceBFS(g, src)
			cache[src] = d
		}
		return d
	}
}

// recoveryAbort reports whether err is one of the typed recovery
// aborts a Disruptive profile legitimately provokes — a recovered
// worker panic or a detected stall — as opposed to a harness failure.
func recoveryAbort(err error) bool {
	var se *core.StallError
	return isPanic(err) || errors.As(err, &se)
}

// isPanic reports whether err is a recovered worker panic, which
// poisons the engine.
func isPanic(err error) bool {
	var wp *core.WorkerPanicError
	return errors.As(err, &wp)
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
	// Algorithms to sweep. Default: SoakAlgorithms.
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
	// stays in the sweep; fused cells drop it too.
	Hybrid bool
	// BaseSeed derives every per-run seed. Default 0xb5f5c4a0.
	BaseSeed uint64
	// Duration stops the sweep (checked between cells) once exceeded;
	// rounds repeat with fresh derived seeds until then. 0 = exactly
	// one sweep.
	Duration time.Duration
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

// SoakAlgorithms is the default soak family set: every core.Algorithm
// plus the fused multi-source engine, core.MSBFSL.
var SoakAlgorithms = append(slices.Clone(core.Algorithms), core.MSBFSL)

func (cfg SoakConfig) withDefaults() SoakConfig {
	if cfg.Algorithms == nil {
		cfg.Algorithms = SoakAlgorithms
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
	// Runs is the number of runs: two per (graph, algorithm, profile,
	// seed) cell, one where the first run's panic poisoned the engine.
	Runs int
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
	// LanesAudited counts the fused lanes of finished runs held to the
	// answer tier of the audit contract.
	LanesAudited int
	// PartialAudited counts the partial results of aborted runs held to
	// core.AuditPartial: one per solo run, one per fused lane.
	PartialAudited int
	// Artifacts lists the repro files written for failures.
	Artifacts []string
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// String renders a one-line summary.
func (r *SoakReport) String() string {
	s := fmt.Sprintf("soak: %d runs, %d failures, %d injections, %d stale steals, %d duplicate pops",
		r.Runs, r.Failures, r.Injections, r.StaleSteals, r.Duplicates)
	if r.Panics > 0 || r.Stalls > 0 {
		s += fmt.Sprintf(", %d recovered panics, %d detected stalls, %d partial results audited",
			r.Panics, r.Stalls, r.PartialAudited)
	}
	if r.Truncated > 0 {
		s += fmt.Sprintf(", %d goal-truncated", r.Truncated)
	}
	if r.LanesAudited > 0 {
		s += fmt.Sprintf(", %d fused lanes audited", r.LanesAudited)
	}
	return s + ", " + r.Elapsed.Round(time.Millisecond).String()
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
	goal := drawGoal(r, n)
	o.Target, o.MaxDepth = goal.Target, goal.MaxDepth
	return o
}

// drawGoal draws one run's (or one fused lane's) goal: a third
// terminate early — at a random target vertex, a random (shallow)
// depth bound, or occasionally both, so the whichever-fires-first rule
// is exercised too. The rest stay unbounded and keep the full
// differential baseline.
func drawGoal(r *rng.SplitMix64, n int32) core.Goal {
	var g core.Goal
	if n > 0 {
		switch r.Next() % 3 {
		case 0:
			g.Target = 1 + int32(r.Next()%uint64(n))
			if r.Next()%4 == 0 {
				g.MaxDepth = 1 + int32(r.Next()%8)
			}
		case 1:
			g.MaxDepth = 1 + int32(r.Next()%8)
		}
	}
	return g
}

// drawLanes draws a fused cell's lanes: 1–64 random sources,
// duplicates allowed, each with its own drawGoal.
func drawLanes(r *rng.SplitMix64, n int32) ([]int32, []core.Goal) {
	k := 1 + int(r.Next()%core.MaxLanes)
	srcs, goals := make([]int32, k), make([]core.Goal, k)
	for i := range srcs {
		srcs[i] = int32(r.Next() % uint64(n))
		goals[i] = drawGoal(r, n)
	}
	return srcs, goals
}

// Soak runs the differential sweep. Every (graph, algorithm, profile,
// seed) cell derives its options (or, for core.MSBFSL, its lanes) and
// seeds, builds one engine and runs it twice (see runCell), auditing
// every run against the serial oracle and the protocol invariants; a
// cell with any violation emits one repro artifact. It only returns an
// error for harness problems (generation, artifact I/O); invariant
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
		ref  func(int32) []int32
	}
	graphs := make([]prepared, 0, len(cfg.Graphs))
	for _, spec := range cfg.Graphs {
		g, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("chaos: generating %s: %w", spec, err)
		}
		graphs = append(graphs, prepared{spec, g, oracles(g)})
	}

	for round := 0; ; round++ {
		for _, pg := range graphs {
			for _, algo := range cfg.Algorithms {
				for _, prof := range cfg.Profiles {
					for s := 0; s < cfg.Seeds; s++ {
						if expired() {
							rep.Elapsed = time.Since(start)
							return rep, nil
						}
						cell := rng.Mix64(cfg.BaseSeed ^ rng.Mix64(uint64(round)<<32|uint64(s)) ^
							rng.Mix64(uint64(len(pg.spec.Kind))+pg.spec.Seed) ^ hashString(string(algo)+prof.Name))
						if err := soakCell(cfg, rep, pg.g, pg.ref, deriveCell(cfg, pg.spec, pg.g, algo, prof, cell)); err != nil {
							return nil, err
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

// deriveCell expands one cell seed into the cell's Repro: options by
// deriveOptions, the injection seed, and for a fused cell its lanes.
func deriveCell(cfg SoakConfig, spec GraphSpec, g *graph.CSR, algo core.Algorithm, prof Profile, seed uint64) Repro {
	r := rng.NewSplitMix64(seed)
	c := Repro{Graph: spec, Algorithm: algo, Profile: prof,
		Options: deriveOptions(r, cfg.Workers, g.NumVertices())}
	// The serial variant rejects Hybrid at construction; the draw (or
	// pin) only applies to the parallel cells.
	c.Options.Hybrid = (c.Options.Hybrid || cfg.Hybrid) && algo != core.Serial
	c.InjectionSeed = r.Next()
	if algo == core.MSBFSL {
		// The fused engine honors only Workers, Seed and the watchdog;
		// its goals are per lane.
		c.Options = RunOptions{Workers: c.Options.Workers, Seed: c.Options.Seed}
		c.Sources, c.Goals = drawLanes(r, g.NumVertices())
	}
	if prof.Disruptive() {
		// Arm the watchdog so forced stalls abort with a typed
		// StallError instead of dragging the sweep; 50ms is well under
		// StallMillis.
		c.Options.StallTimeoutMillis = 50
	}
	return c
}

// soakCell runs one cell, adds its runs to rep and the registry, and
// writes its artifact if any run broke an invariant.
func soakCell(cfg SoakConfig, rep *SoakReport, g *graph.CSR, ref func(int32) []int32, c Repro) error {
	runs, err := runCell(g, ref, c)
	if err != nil {
		return err
	}
	for _, cr := range runs {
		rep.Runs++
		rep.Injections += cr.inj.Injections()
		publishSoakRun(cfg.Registry, c.Algorithm, c.Profile, cr)
		switch {
		case isPanic(cr.err):
			// Typed recovery aborts: the process survived the injected
			// fault and surfaced it as data, with a partial result that
			// understates and never lies.
			rep.Panics++
			rep.PartialAudited += cr.audited
		case cr.err != nil:
			rep.Stalls++
			rep.PartialAudited += cr.audited
		default:
			if c.Algorithm == core.MSBFSL {
				rep.LanesAudited += cr.audited
			}
			if cr.res.Truncated {
				rep.Truncated++
			}
			rep.StaleSteals += cr.res.Counters.StealStale
			if d := cr.res.Duplicates(); d > 0 {
				// Hybrid runs can report negative Duplicates() —
				// bottom-up levels settle vertices without pops — which
				// would silently shrink the sweep total.
				rep.Duplicates += d
			}
		}
		if len(cr.vs) > 0 {
			rep.Failures++
			c.Violations = append(c.Violations, cr.vs...)
		}
		if cfg.Verbose {
			fmt.Fprintf(cfg.Log, "run %s %s %s workers=%d seed=%#x: %d injections, %d violations, abort: %v\n",
				c.Algorithm, c.Graph, c.Profile.Name, c.Options.Workers, c.Options.Seed, cr.inj.Injections(), len(cr.vs), cr.err)
		}
	}
	if len(c.Violations) == 0 {
		return nil
	}
	fmt.Fprintf(cfg.Log, "FAIL %s on %s profile=%s: %v\n", c.Algorithm, c.Graph, c.Profile.Name, c.Violations[0])
	if cfg.ArtifactDir != "" {
		path, err := WriteRepro(cfg.ArtifactDir, c)
		if err != nil {
			return err
		}
		rep.Artifacts = append(rep.Artifacts, path)
		fmt.Fprintf(cfg.Log, "  repro artifact: %s\n", path)
	}
	return nil
}

// publishSoakRun feeds one audited run into the live registry, with a
// recovered abort labeled by which typed error surfaced. Called after
// the audit, entirely outside the run, so the sweep's timing and
// interleavings are unaffected.
func publishSoakRun(reg *obs.Registry, algo core.Algorithm, prof Profile, cr cellRun) {
	if reg == nil {
		return
	}
	algoL, profL := obs.L("algo", string(algo)), obs.L("profile", prof.Name)
	reg.Counter("optibfs_soak_runs_total", algoL, profL).Inc()
	reg.Counter("optibfs_soak_injections_total", algoL, profL).Add(cr.inj.Injections())
	switch {
	case isPanic(cr.err):
		reg.Counter("optibfs_soak_recovered_aborts_total", algoL, profL, obs.L("kind", "panic")).Inc()
	case cr.err != nil:
		reg.Counter("optibfs_soak_recovered_aborts_total", algoL, profL, obs.L("kind", "stall")).Inc()
	default:
		reg.Counter("optibfs_soak_stale_steals_total", algoL, profL).Add(cr.res.Counters.StealStale)
		if d := cr.res.Duplicates(); d > 0 {
			// Negative under hybrid (bottom-up settles without pops); a
			// counter must never go backwards.
			reg.Counter("optibfs_soak_duplicates_total", algoL, profL).Add(d)
		}
	}
	if len(cr.vs) > 0 {
		reg.Counter("optibfs_soak_failures_total", algoL, profL).Inc()
	}
}

// hashString mixes a short label into a seed.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
