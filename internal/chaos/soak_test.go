package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optibfs/internal/core"
	"optibfs/internal/obs"
	"optibfs/internal/rng"
)

func TestGraphSpecGenerate(t *testing.T) {
	for _, spec := range DefaultGraphs() {
		g, err := spec.Generate()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if g.NumVertices() != spec.N {
			t.Fatalf("%s: generated %d vertices", spec, g.NumVertices())
		}
	}
	if _, err := (GraphSpec{Kind: "moebius", N: 8}).Generate(); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
}

func TestDeriveOptionsStayInRange(t *testing.T) {
	r := rng.NewSplitMix64(17)
	const maxWorkers = 9
	const n = 4096
	goals := 0
	for i := 0; i < 500; i++ {
		o := deriveOptions(r, maxWorkers, n)
		if o.Workers < 2 || o.Workers > maxWorkers {
			t.Fatalf("workers %d out of [2, %d]", o.Workers, maxWorkers)
		}
		if o.Pools < 1 || o.Pools > o.Workers {
			t.Fatalf("pools %d out of [1, %d]", o.Pools, o.Workers)
		}
		if o.SameSocketBias < 0 || o.SameSocketBias > 1 {
			t.Fatalf("bias %g out of [0, 1]", o.SameSocketBias)
		}
		if o.Sockets == 1 || o.Sockets < 0 || o.Sockets > 4 {
			t.Fatalf("sockets %d unexpected", o.Sockets)
		}
		if o.Core().SameSocketBias != o.SameSocketBias {
			t.Fatalf("bias %g lost in Core() conversion", o.SameSocketBias)
		}
		if o.Target < 0 || o.Target > n {
			t.Fatalf("target %d out of vertex+1 range [0, %d]", o.Target, n)
		}
		if o.MaxDepth < 0 || o.MaxDepth > 8 {
			t.Fatalf("depth bound %d out of [0, 8]", o.MaxDepth)
		}
		if g := o.goal(); g.Target != o.Target || g.MaxDepth != o.MaxDepth {
			t.Fatalf("goal (%d, %d) lost in goal() conversion", o.Target, o.MaxDepth)
		}
		if o.Target != 0 || o.MaxDepth != 0 {
			goals++
		}
	}
	// About a third of the derived sets must carry a goal — the sweep
	// would silently stop covering early termination if the draw broke.
	if goals < 100 || goals > 450 {
		t.Fatalf("%d of 500 derived option sets carry a goal, want roughly two thirds", goals)
	}
}

func TestReproRoundTripAndReplay(t *testing.T) {
	r := Repro{
		Graph:     GraphSpec{Kind: "layered", N: 1500, M: 7500, Layers: 30, Seed: 9},
		Source:    0,
		Algorithm: core.BFSWSL,
		Options: RunOptions{
			Workers: 4, SegmentSize: 1, Sockets: 2, SameSocketBias: 0,
			Phase2Stealing: true, TrackParents: true, Seed: 0xfeed,
		},
		Profile:       mustProfile(t, "steal-storm"),
		InjectionSeed: 0xabcde,
	}
	dir := t.TempDir()
	path, err := WriteRepro(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph != r.Graph || got.Algorithm != r.Algorithm || got.Options != r.Options ||
		got.Profile.Name != r.Profile.Name || got.Profile.Prob != r.Profile.Prob ||
		got.InjectionSeed != r.InjectionSeed {
		t.Fatalf("artifact round-trip mangled the repro:\nwrote %+v\nread  %+v", r, got)
	}
	vs, res, err := Replay(got)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 1500 {
		t.Fatalf("replay reached %d of 1500 vertices", res.Reached)
	}
	if len(vs) != 0 {
		t.Fatalf("replay of a correct run reported violations: %v", vs)
	}
	// An artifact from a build whose options still carried the
	// persistent-workers toggle must decode to the same run and replay.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["options"].(map[string]any)["persistent_workers"] = true
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := LoadRepro(legacy)
	if err != nil {
		t.Fatalf("legacy artifact: %v", err)
	}
	if old.Options != r.Options {
		t.Fatalf("legacy artifact options: got %+v, want %+v", old.Options, r.Options)
	}
	if vs, res, err = Replay(old); err != nil {
		t.Fatalf("legacy artifact replay: %v", err)
	}
	if res.Reached != 1500 || len(vs) != 0 {
		t.Fatalf("legacy artifact replay: reached=%d violations=%v", res.Reached, vs)
	}
	if _, err := LoadRepro(path + ".missing"); err == nil {
		t.Fatal("missing artifact loaded")
	}
}

// TestReplayDefaultsWorkers guards the injector-sizing hazard: an
// artifact with Workers 0 must not build a 1-lane injector for a
// GOMAXPROCS-wide run.
func TestReplayDefaultsWorkers(t *testing.T) {
	r := Repro{
		Graph:     GraphSpec{Kind: "star", N: 512, Seed: 1},
		Algorithm: core.BFSWL,
		Options:   RunOptions{Seed: 3},
		Profile:   mustProfile(t, "mixed"),
	}
	vs, res, err := Replay(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 || res.Reached != 512 {
		t.Fatalf("replay with defaulted workers: reached=%d violations=%v", res.Reached, vs)
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSoakSweepAllVariantsClean is the acceptance sweep in miniature:
// every algorithm under aggressive perturbation profiles must survive
// the differential audit with zero violations.
func TestSoakSweepAllVariantsClean(t *testing.T) {
	graphs := []GraphSpec{
		{Kind: "layered", N: 1200, M: 6000, Layers: 25, Seed: 3},
		{Kind: "star", N: 1024, Seed: 4},
	}
	profiles := []Profile{
		mustProfile(t, "steal-storm"),
		mustProfile(t, "mixed"),
	}
	seeds := 2
	if testing.Short() {
		graphs = graphs[:1]
		profiles = profiles[1:]
		seeds = 1
	}
	var buf bytes.Buffer
	rep, err := Soak(SoakConfig{
		Graphs:   graphs,
		Profiles: profiles,
		Seeds:    seeds,
		Workers:  6,
		Log:      &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(graphs) * len(core.Algorithms) * len(profiles) * seeds
	if rep.Runs != wantRuns {
		t.Fatalf("ran %d cells, want %d", rep.Runs, wantRuns)
	}
	if rep.Failures != 0 || len(rep.Artifacts) != 0 {
		t.Fatalf("soak failures: %d\n%s", rep.Failures, buf.String())
	}
	if rep.Injections == 0 {
		t.Fatal("sweep injected nothing")
	}
	if !strings.Contains(rep.String(), "0 failures") {
		t.Fatalf("report line malformed: %s", rep)
	}
}

// TestSoakMinimalConfig runs the smallest possible sweep (serial
// algorithm, inert profile, one seed) with an artifact dir configured
// and checks it stays clean without writing anything, then exercises
// the artifact write path with a synthetic failure.
func TestSoakMinimalConfig(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	rep, err := Soak(SoakConfig{
		Graphs:      []GraphSpec{{Kind: "star", N: 64, Seed: 1}},
		Profiles:    []Profile{{Name: "baseline"}},
		Seeds:       1,
		Workers:     4,
		Log:         &buf,
		Algorithms:  []core.Algorithm{core.Serial},
		ArtifactDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || len(rep.Artifacts) != 0 {
		t.Fatalf("control sweep failed: %s", buf.String())
	}
	r := Repro{
		Graph:     GraphSpec{Kind: "star", N: 64, Seed: 1},
		Algorithm: core.BFSWL,
		Options:   RunOptions{Workers: 2, Seed: 1},
		Profile:   Profile{Name: "baseline"},
		Violations: []core.Violation{
			{Invariant: "distances-match-oracle", Detail: "synthetic"},
		},
	}
	path, err := WriteRepro(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Violations) != 1 || got.Violations[0].Invariant != "distances-match-oracle" {
		t.Fatalf("violations lost in round-trip: %+v", got.Violations)
	}
}

// TestSoakEnginesSmoke runs a small sweep entirely through shared
// engines (one per graph-algorithm pair) and checks it stays clean:
// the auditor's oracle comparison now also covers state-reuse bugs —
// a stale epoch stamp or a queue slot leaked by the previous run would
// surface as a distance mismatch on a later cell.
func TestSoakEnginesSmoke(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Soak(SoakConfig{
		Graphs: []GraphSpec{
			{Kind: "star", N: 512, Seed: 4},
			{Kind: "chunglu", N: 1024, M: 8192, Gamma: 2.0, Seed: 2},
		},
		Profiles:   []Profile{{Name: "baseline"}, Profiles()[0]},
		Seeds:      2,
		Workers:    4,
		Engines:    true,
		Log:        &buf,
		Algorithms: []core.Algorithm{core.BFSCL, core.BFSDL, core.BFSWL, core.BFSWSL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("engine sweep broke invariants: %s", buf.String())
	}
	if rep.EngineRuns != rep.Runs || rep.Runs == 0 {
		t.Fatalf("EngineRuns=%d Runs=%d, want all runs on shared engines", rep.EngineRuns, rep.Runs)
	}
	if !strings.Contains(rep.String(), "shared engines") {
		t.Fatalf("report does not mention engine runs: %s", rep)
	}
}

// TestReplayEngineRun checks the engine-aware replay path: an
// EngineRun artifact replays on one reused engine without error.
func TestReplayEngineRun(t *testing.T) {
	r := Repro{
		Graph:         GraphSpec{Kind: "chunglu", N: 1024, M: 8192, Gamma: 2.0, Seed: 2},
		Algorithm:     core.BFSWSL,
		Options:       RunOptions{Workers: 4, Seed: 11},
		Profile:       Profiles()[0],
		InjectionSeed: 99,
		EngineRun:     true,
	}
	vs, res, err := Replay(r)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Reached == 0 {
		t.Fatal("engine replay returned no result")
	}
	if len(vs) != 0 {
		t.Fatalf("healthy engine replay reported violations: %v", vs)
	}
}

// TestSoakPublishesRegistry wires a registry into a narrow sweep and
// checks the live counters arrive with algo/profile labels and agree
// with the report totals.
func TestSoakPublishesRegistry(t *testing.T) {
	reg := obs.New()
	rep, err := Soak(SoakConfig{
		Graphs:     []GraphSpec{{Kind: "star", N: 256, Seed: 4}},
		Profiles:   []Profile{mustProfile(t, "steal-storm")},
		Algorithms: []core.Algorithm{core.BFSWL},
		Seeds:      2,
		Workers:    4,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := []obs.Label{obs.L("algo", string(core.BFSWL)), obs.L("profile", "steal-storm")}
	if got := reg.Counter("optibfs_soak_runs_total", labels...).Value(); got != int64(rep.Runs) {
		t.Fatalf("soak_runs_total %d, want %d", got, rep.Runs)
	}
	if got := reg.Counter("optibfs_soak_injections_total", labels...).Value(); got != rep.Injections {
		t.Fatalf("soak_injections_total %d, want %d", got, rep.Injections)
	}
	if got := reg.Counter("optibfs_soak_failures_total", labels...).Value(); got != int64(rep.Failures) {
		t.Fatalf("soak_failures_total %d, want %d", got, rep.Failures)
	}
}
