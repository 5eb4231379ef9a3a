package chaos

import (
	"errors"
	"fmt"
	"io"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// MSLaneConfig sweeps the fused multi-source engine (core.MSEngine)
// under perturbation and audits every lane against the serial oracle.
// The fused kernel's correctness argument is subtle — the advisory
// mark masks may lose OR'd lane bits, which is benign only if losses
// strictly understate (duplicates, never misses) — so the auditor
// checks per-lane exactness, not just aggregate counters.
type MSLaneConfig struct {
	// Graphs to sweep. Nil = DefaultGraphs().
	Graphs []GraphSpec
	// Profiles to inject. Nil = Profiles() (includes panic and stall
	// profiles; both must leave completed lanes exact).
	Profiles []Profile
	// Rounds is how many fused runs each (graph, profile) pair gets,
	// with lane counts and sources re-derived per round. Default 3.
	Rounds int
	// Workers per engine. Default 4.
	Workers int
	// BaseSeed anchors the deterministic sweep. Default fixed.
	BaseSeed uint64
	// Log receives progress lines. Nil = discard.
	Log io.Writer
}

func (cfg MSLaneConfig) withDefaults() MSLaneConfig {
	if cfg.Graphs == nil {
		cfg.Graphs = DefaultGraphs()
	}
	if cfg.Profiles == nil {
		cfg.Profiles = Profiles()
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 0x5bf5ea7e
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return cfg
}

// MSLaneReport summarizes one MSLaneSoak sweep.
type MSLaneReport struct {
	// Runs is the number of fused runs executed.
	Runs int
	// LanesAudited counts fully-validated lanes across completed runs.
	LanesAudited int
	// PartialLanes counts lanes audited in partial (aborted-run) form.
	PartialLanes int
	// Failures is how many runs broke at least one lane invariant.
	Failures int
	// Panics counts runs aborted by a recovered worker panic.
	Panics int
	// Stalls counts runs aborted by a detected stall.
	Stalls int
	// Injections totals the injector's perturbations.
	Injections int64
	// Violations collects every lane-invariant violation observed.
	Violations []core.Violation
	// Elapsed is the sweep wall-clock time.
	Elapsed time.Duration
}

// String renders a one-line summary.
func (r *MSLaneReport) String() string {
	return fmt.Sprintf("mslanes: %d fused runs, %d lanes audited (%d partial), %d failures, %d recovered panics, %d stalls, %d injections, %s",
		r.Runs, r.LanesAudited, r.PartialLanes, r.Failures, r.Panics, r.Stalls, r.Injections,
		r.Elapsed.Round(time.Millisecond))
}

// MSLaneSoak sweeps graphs × profiles × rounds over a reused fused
// engine, auditing every lane of every run against graph.ReferenceBFS.
// Completed runs must be exact per lane (distances, parents, levels,
// reached/edge counters). Aborted runs — injected panics, which poison
// the engine, and forced stalls, which the 50ms watchdog armed for
// Disruptive profiles converts into typed StallErrors — must leave
// every settled per-lane distance exact and the lane's Reached equal
// to its settled count: partial results understate, never lie. A
// stalled engine stays in service, as the core contract promises; a
// panicked one is replaced.
func MSLaneSoak(cfg MSLaneConfig) (*MSLaneReport, error) {
	cfg = cfg.withDefaults()
	rep := &MSLaneReport{}
	start := time.Now()
	r := rng.NewSplitMix64(cfg.BaseSeed)
	for _, spec := range cfg.Graphs {
		g, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		// Oracle cache: lanes across rounds reuse sources.
		oracle := map[int32][]int32{}
		ref := func(src int32) []int32 {
			if d, ok := oracle[src]; ok {
				return d
			}
			d := graph.ReferenceBFS(g, src)
			oracle[src] = d
			return d
		}
		for _, prof := range cfg.Profiles {
			opt := core.Options{Workers: cfg.Workers}
			if prof.Disruptive() {
				// As in Soak: forced stalls abort with a typed
				// StallError; 50ms is well under StallMillis.
				opt.StallTimeout = 50 * time.Millisecond
			}
			opt.Seed = r.Next()
			eng, err := core.NewMSEngine(g, opt)
			if err != nil {
				return nil, err
			}
			for round := 0; round < cfg.Rounds; round++ {
				lanes := int(r.Next()%core.MaxLanes) + 1
				srcs := make([]int32, lanes)
				for i := range srcs {
					srcs[i] = int32(r.Next() % uint64(g.NumVertices()))
				}
				inj := NewInjector(prof, r.Next(), cfg.Workers)
				eng.SetChaos(inj)
				res, rerr := eng.Run(srcs)
				rep.Runs++
				rep.Injections += inj.Injections()
				var vs []core.Violation
				switch {
				case rerr == nil:
					for i := range srcs {
						vs = append(vs, auditLane(g, ref, res.Lane(i), false)...)
						rep.LanesAudited++
					}
				case recoveryAbort(rerr):
					var wp *core.WorkerPanicError
					panicked := errors.As(rerr, &wp)
					if panicked {
						rep.Panics++
					} else {
						rep.Stalls++
					}
					if res != nil {
						for i := range srcs {
							vs = append(vs, auditLane(g, ref, res.Lane(i), true)...)
							rep.PartialLanes++
						}
					}
					if panicked {
						// A panic poisons the engine; replace it like the
						// serve layer would.
						eng.Close()
						opt.Seed = r.Next()
						if eng, err = core.NewMSEngine(g, opt); err != nil {
							return nil, err
						}
					}
				default:
					eng.Close()
					return nil, fmt.Errorf("chaos: fused run on %s/%s: %w", spec, prof.Name, rerr)
				}
				if len(vs) > 0 {
					rep.Failures++
					rep.Violations = append(rep.Violations, vs...)
					fmt.Fprintf(cfg.Log, "FAIL %s profile=%s lanes=%d: %d violations (first: %s)\n",
						spec, prof.Name, lanes, len(vs), vs[0])
				}
			}
			eng.Close()
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// auditLane checks one lane against the oracle. Partial lanes (from
// an aborted run) must understate exactly: every settled distance
// matches the oracle and Reached equals the settled count. Complete
// lanes must pass the answer tier of the audit contract.
func auditLane(g *graph.CSR, ref func(int32) []int32, lr *core.LaneResult, partial bool) []core.Violation {
	var vs []core.Violation
	want := ref(lr.Src)
	if partial {
		var settled int64
		for v, d := range lr.Dist {
			if d == graph.Unreached {
				continue
			}
			settled++
			if d != want[v] {
				vs = append(vs, core.Violation{
					Invariant: "ms-lane-partial-exact",
					Detail:    fmt.Sprintf("lane src=%d: settled dist[%d]=%d, oracle %d", lr.Src, v, d, want[v]),
				})
			}
		}
		if settled != lr.Reached {
			vs = append(vs, core.Violation{
				Invariant: "ms-lane-partial-count",
				Detail:    fmt.Sprintf("lane src=%d: Reached=%d but %d settled", lr.Src, lr.Reached, settled),
			})
		}
		return vs
	}
	for _, v := range core.AuditAnswer(g, lr.Src, want, core.Goal{}, lr.AsResult()) {
		v.Detail = fmt.Sprintf("lane src=%d: %s", lr.Src, v.Detail)
		vs = append(vs, v)
	}
	return vs
}
