// Registry soak: drives concurrent load / evict / query / swap /
// shutdown interleavings against a serve.Registry with chaos-injected
// engines (panics, stalls, yields), and audits the lifecycle
// invariants the registry promises:
//
//   - No query ever observes a partially-loaded or evicted graph:
//     every answer is validated against a reference BFS computed on
//     the exact CSR the query's lease pinned.
//   - No retained mapping is ever unmapped: a lease-held mapping must
//     report Mapped before and after the query, and after the round's
//     Close every tracked mapping is either unmapped or accounted for
//     by the registry's deliberate wedged-engine leaks.
//   - Every admitted query terminates with a typed outcome: an Answer
//     whose Outcome is ok/recovered/degraded, or one of the typed
//     serve errors / the caller's context error.
//   - Shed decisions are monotone under rising load: every admission
//     decision the controller took replays cleanly through
//     serve.CheckDecision (each verdict is the threshold rule applied
//     to its own recorded state).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/rng"
	"optibfs/internal/serve"
)

// RegistrySoakConfig sizes a registry soak. Zero fields select the
// documented defaults.
type RegistrySoakConfig struct {
	// Rounds is how many fresh registries the soak builds and tears
	// down; every third round injects a mid-round Close (the SIGTERM
	// interleaving). Default 8.
	Rounds int
	// Workers is the concurrent client count per round. Default 8.
	Workers int
	// OpsPerWorker is each client's operation count per round (ops are
	// the soak's "interleavings": every one runs concurrently against
	// the others). Default 16.
	OpsPerWorker int
	// Graphs is the named-graph population per round. Default 4.
	Graphs int
	// Profile perturbs the engines. Default: "mixed" on even rounds,
	// "panic-storm" (panics + forced stalls) on odd rounds.
	Profile *Profile
	// Seed derives every stream. Default 0x9e3779b97f4a7c15.
	Seed uint64
	// Dir receives the v2 binary files backing the mapped graphs.
	// Empty = a fresh temp dir (removed afterwards).
	Dir string
	// Log receives progress lines. Nil = discard.
	Log io.Writer
}

func (c RegistrySoakConfig) withDefaults() RegistrySoakConfig {
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.OpsPerWorker <= 0 {
		c.OpsPerWorker = 16
	}
	if c.Graphs <= 0 {
		c.Graphs = 4
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// RegistrySoakReport summarizes one RegistrySoak call.
type RegistrySoakReport struct {
	// Interleavings is the total operation count (each op ran
	// concurrently with the others of its round).
	Interleavings int
	// Queries / Admitted / Sheds / Loads / Evicts / MidCloses break the
	// ops down; Admitted counts queries that passed admission (every
	// one must have terminated typed for the soak to pass).
	Queries   int64
	Admitted  int64
	Sheds     int64
	Loads     int64
	Evicts    int64
	MidCloses int
	// Decisions is how many admission decisions were audited.
	Decisions int
	// LeakedMappings counts mappings deliberately leaked for wedged
	// engines (allowed; distinguished from lifecycle bugs).
	LeakedMappings int64
	// Violations are the invariant breaks observed (empty = pass).
	Violations []core.Violation
	// Elapsed is wall-clock time.
	Elapsed time.Duration
}

func (r *RegistrySoakReport) String() string {
	return fmt.Sprintf("registry soak: %d interleavings (%d queries, %d admitted, %d sheds, %d loads, %d evicts, %d mid-closes), %d decisions audited, %d leaked mappings, %d violations, %s",
		r.Interleavings, r.Queries, r.Admitted, r.Sheds, r.Loads, r.Evicts, r.MidCloses,
		r.Decisions, r.LeakedMappings, len(r.Violations), r.Elapsed.Round(time.Millisecond))
}

// sharedHook serializes an Injector so many engines can share it. The
// Injector's per-worker decision lanes assume worker ids are disjoint,
// which holds inside one engine but not across a registry's fleets
// (every engine numbers its workers from 0). Injected panics unwind
// through the deferred unlock, and injected stalls hold the lock —
// deliberately wedging other engines' chaos crossings at the same
// time, which is exactly the kind of correlated stall a real machine
// produces under memory pressure.
type sharedHook struct {
	mu  sync.Mutex
	inj *Injector
}

func (h *sharedHook) At(point core.ChaosPoint, worker int, value int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.inj.At(point, worker, value)
}

// soakAudit collects violations and decisions concurrently.
type soakAudit struct {
	mu         sync.Mutex
	violations []core.Violation
	decisions  []serve.AdmissionDecision
}

func (a *soakAudit) violate(invariant, format string, args ...any) {
	a.mu.Lock()
	a.violations = append(a.violations, core.Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	a.mu.Unlock()
}

func (a *soakAudit) decide(d serve.AdmissionDecision) {
	a.mu.Lock()
	a.decisions = append(a.decisions, d)
	a.mu.Unlock()
}

// RegistrySoak runs the sweep. It returns an error only for harness
// problems (generation, file I/O); invariant violations land in the
// report.
func RegistrySoak(cfg RegistrySoakConfig) (*RegistrySoakReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &RegistrySoakReport{}

	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "optibfs-regsoak")
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}

	for round := 0; round < cfg.Rounds; round++ {
		if err := registryRound(cfg, dir, round, rep); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.Log, "round %d/%d: %d interleavings so far, %d violations\n",
			round+1, cfg.Rounds, rep.Interleavings, len(rep.Violations))
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// registryRound builds one registry, hammers it, closes it, audits.
func registryRound(cfg RegistrySoakConfig, dir string, round int, rep *RegistrySoakReport) error {
	seed := rng.Mix64(cfg.Seed ^ uint64(round)*0x9e3779b97f4a7c15)
	r := rng.NewSplitMix64(seed)
	audit := &soakAudit{}

	prof := Profile{Name: "mixed", Prob: uniformProb(0.1), Yields: 2, Spin: 16}
	if cfg.Profile != nil {
		prof = *cfg.Profile
	} else if round%2 == 1 {
		var err error
		prof, err = ProfileByName("panic-storm")
		if err != nil {
			return err
		}
	}

	// Per-round graph population: half mapped (v2 file, zero-copy),
	// half heap, sizes drawn so the budget forces evict-on-insert.
	type namedGraph struct {
		name string
		g    *graph.CSR
		path string // "" = heap-loaded
		cost int64
	}
	graphs := make([]namedGraph, cfg.Graphs)
	var totalCost int64
	for i := range graphs {
		n := int32(400 + r.Next()%600)
		m := int64(n) * int64(3+r.Next()%4)
		g, err := gen.ErdosRenyi(n, m, r.Next(), gen.Options{})
		if err != nil {
			return fmt.Errorf("chaos: registry soak graph: %w", err)
		}
		ng := namedGraph{name: fmt.Sprintf("g%d", i), g: g}
		ng.cost = int64(len(g.Offsets))*8 + int64(len(g.Edges))*4
		if i%2 == 0 {
			path := filepath.Join(dir, fmt.Sprintf("r%d-g%d.bin", round, i))
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("chaos: %w", err)
			}
			if err := mmio.WriteBinaryV2(f, g); err != nil {
				f.Close()
				return fmt.Errorf("chaos: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("chaos: %w", err)
			}
			ng.path = path
		}
		graphs[i] = ng
		totalCost += ng.cost
	}

	// Track every mapping the round creates so the post-Close audit can
	// assert full unmap (minus deliberate wedged-engine leaks).
	var mapMu sync.Mutex
	var mappings []*mmio.MappedGraph
	sourceFor := func(ng namedGraph) serve.GraphSource {
		if ng.path == "" {
			return func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
				return ng.g, nil, nil
			}
		}
		path := ng.path
		return func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
			mg, err := mmio.LoadMapped(path, mmio.MapOptions{})
			if err != nil {
				return nil, nil, err
			}
			mapMu.Lock()
			mappings = append(mappings, mg)
			mapMu.Unlock()
			return mg.Graph(), mg, nil
		}
	}

	inj := NewInjector(prof, r.Next(), 4)
	guardOpts := core.Options{Workers: 3, Chaos: &sharedHook{inj: inj}}
	if prof.Disruptive() {
		guardOpts.StallTimeout = 50 * time.Millisecond
	}
	reg := serve.NewRegistry(serve.RegistryConfig{
		// ~70% of the population fits: inserts past that must evict.
		MemoryBudget: totalCost * 7 / 10,
		Guard: serve.Config{
			Concurrency: 2,
			Options:     guardOpts,
			Deadline:    2 * time.Second,
			Grace:       500 * time.Millisecond,
			QueueWait:   100 * time.Millisecond,
		},
		Admission: serve.AdmissionConfig{
			MaxInFlight:  4,
			MaxQueue:     16,
			QueueWait:    200 * time.Millisecond,
			DecisionHook: audit.decide,
		},
	})
	closed := reg.Close // ensured below

	// Seed the registry with the first two graphs so early queries have
	// something to hit; the rest load mid-flight.
	for i := 0; i < 2 && i < len(graphs); i++ {
		if err := reg.Load(context.Background(), graphs[i].name, sourceFor(graphs[i])); err != nil {
			return fmt.Errorf("chaos: registry soak seed load: %w", err)
		}
	}

	var (
		ops       atomic.Int64
		queries   atomic.Int64
		admitted  atomic.Int64
		sheds     atomic.Int64
		loads     atomic.Int64
		evicts    atomic.Int64
		completed atomic.Int64
	)
	totalOps := int64(cfg.Workers * cfg.OpsPerWorker)
	midClose := round%3 == 2
	var closerWG sync.WaitGroup
	if midClose {
		// The SIGTERM interleaving: Close fires while roughly half the
		// round's ops are still in flight.
		closerWG.Add(1)
		go func() {
			defer closerWG.Done()
			for ops.Load() < totalOps/2 {
				time.Sleep(time.Millisecond)
			}
			closed()
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := rng.NewSplitMix64(rng.Mix64(seed ^ uint64(w+1)*0xbf58476d1ce4e5b9))
			for op := 0; op < cfg.OpsPerWorker; op++ {
				ops.Add(1)
				ng := graphs[wr.Next()%uint64(len(graphs))]
				switch x := wr.Next() % 100; {
				case x < 12: // load (first time) or swap (reinstall)
					loads.Add(1)
					err := reg.Load(context.Background(), ng.name, sourceFor(ng))
					if err != nil && !errors.Is(err, serve.ErrBudgetExceeded) &&
						!errors.Is(err, serve.ErrClosed) {
						audit.violate("load-typed-outcome", "load %s: untyped error %v", ng.name, err)
					}
				case x < 18: // evict
					evicts.Add(1)
					err := reg.Evict(ng.name)
					if err != nil && !errors.Is(err, serve.ErrNotFound) &&
						!errors.Is(err, serve.ErrClosed) {
						audit.violate("evict-typed-outcome", "evict %s: untyped error %v", ng.name, err)
					}
				default:
					queries.Add(1)
					registryQueryOp(reg, ng.name, wr, audit, &admitted, &sheds, &completed)
				}
			}
		}(w)
	}
	wg.Wait()
	closerWG.Wait()
	reg.Close()

	if a, c := admitted.Load(), completed.Load(); a != c {
		audit.violate("admitted-terminates", "%d queries admitted but only %d terminated", a, c)
	}

	// Post-Close mapping audit: every mapping is unmapped, except those
	// the registry deliberately leaked for wedged engines.
	stillMapped := 0
	mapMu.Lock()
	for _, mg := range mappings {
		if !mg.Unmapped() {
			stillMapped++
		}
	}
	total := len(mappings)
	mapMu.Unlock()
	leaked := reg.LeakedMappings()
	if int64(stillMapped) > leaked {
		audit.violate("mapping-lifecycle", "round %d: %d of %d mappings still mapped after Close, only %d accounted as wedged-engine leaks",
			round, stillMapped, total, leaked)
	}

	audit.mu.Lock()
	for i, d := range audit.decisions {
		if err := serve.CheckDecision(d); err != nil {
			audit.violations = append(audit.violations, core.Violation{
				Invariant: "shed-monotone",
				Detail:    fmt.Sprintf("decision %d: %v (%+v)", i, err, d),
			})
		}
	}
	rep.Decisions += len(audit.decisions)
	rep.Violations = append(rep.Violations, audit.violations...)
	audit.mu.Unlock()

	rep.Interleavings += int(ops.Load())
	rep.Queries += queries.Load()
	rep.Admitted += admitted.Load()
	rep.Sheds += sheds.Load()
	rep.Loads += loads.Load()
	rep.Evicts += evicts.Load()
	rep.LeakedMappings += leaked
	if midClose {
		rep.MidCloses++
	}
	return nil
}

// registryQueryOp runs one admitted-or-shed query and audits its
// lifecycle: typed admission outcome, mapping retained across the
// query, answer consistent with the leased CSR, typed terminal
// outcome.
func registryQueryOp(reg *serve.Registry, name string, wr *rng.SplitMix64, audit *soakAudit,
	admitted, sheds, completed *atomic.Int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	lease, err := reg.Begin(ctx, name)
	if err != nil {
		var shed *serve.ShedError
		switch {
		case errors.As(err, &shed):
			sheds.Add(1)
		case errors.Is(err, serve.ErrNotFound),
			errors.Is(err, serve.ErrLoading),
			errors.Is(err, serve.ErrClosed),
			errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, context.Canceled):
		default:
			audit.violate("admission-typed-outcome", "begin %s: untyped error %v", name, err)
		}
		return
	}
	admitted.Add(1)
	defer func() {
		completed.Add(1)
		lease.Release()
	}()

	mg := lease.MappedGraph()
	if mg != nil && mg.Unmapped() {
		audit.violate("retained-mapping-live", "%s gen %d: mapping unmapped at lease acquisition", name, lease.Gen())
		return
	}
	g := lease.Graph()
	src := int32(wr.Next() % uint64(g.NumVertices()))
	ans, err := lease.Guard().Query(ctx, src)
	if mg != nil && mg.Unmapped() {
		audit.violate("retained-mapping-live", "%s gen %d: mapping unmapped while the lease was held", name, lease.Gen())
	}
	if err != nil {
		// The guard's typed vocabulary: overload, swap-race close,
		// context expiry/cancel. Anything else escaped the ladder.
		if !errors.Is(err, serve.ErrOverloaded) && !errors.Is(err, serve.ErrClosed) &&
			!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			audit.violate("query-typed-outcome", "%s src %d: untyped error %v", name, src, err)
		}
		return
	}
	switch ans.Outcome {
	case "ok", "recovered", "degraded":
	default:
		audit.violate("query-typed-outcome", "%s src %d: unknown outcome %q", name, src, ans.Outcome)
	}
	// The answer must pass the audit contract on the exact CSR the
	// lease pinned — a partially-loaded or evicted graph cannot.
	for _, v := range core.AuditAnswer(g, src, nil, core.Goal{}, ans.AsResult()) {
		audit.violate("answer-matches-leased-graph", "%s gen %d src %d: %v", name, lease.Gen(), src, v)
	}
}
