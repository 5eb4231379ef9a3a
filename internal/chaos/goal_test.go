package chaos

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// TestAuditGoalContract: a goal-terminated run passes core.Audit,
// tampering with a settled distance, the truncation flag, or the level
// count is caught, and an unbounded goal holds the run to the full
// oracle.
func TestAuditGoalContract(t *testing.T) {
	g, err := gen.LayeredRandom(1500, 7500, 30, 9, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)

	// Depth-bounded run: 5 closed levels, everything deeper Unreached.
	goal := core.Goal{MaxDepth: 5}
	res, err := core.RunGoal(context.Background(), g, 0, core.BFSWL, core.Options{Workers: 4, TrackParents: true}, goal)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Levels != 5 {
		t.Fatalf("depth-bounded run: Levels=%d Truncated=%v", res.Levels, res.Truncated)
	}
	if vs := core.Audit(g, 0, want, goal, res); len(vs) != 0 {
		t.Fatalf("clean truncated run flagged: %v", vs)
	}
	// nil oracle computes its own reference.
	if vs := core.Audit(g, 0, nil, goal, res); len(vs) != 0 {
		t.Fatalf("clean truncated run flagged with computed oracle: %v", vs)
	}

	flagged := func(vs []core.Violation, invariant string) bool {
		for _, v := range vs {
			if v.Invariant == invariant {
				return true
			}
		}
		return false
	}

	// Tamper with a settled distance: caught as goal-distances-exact.
	var settled int32 = -1
	for v, d := range want {
		if d > 0 && d < 5 {
			settled = int32(v)
			break
		}
	}
	saved := res.Dist[settled]
	res.Dist[settled] = saved + 1
	if vs := core.Audit(g, 0, want, goal, res); !flagged(vs, "goal-distances-exact") {
		t.Fatalf("corrupted settled distance not flagged: %v", vs)
	}
	res.Dist[settled] = saved

	// Lie about truncation: caught as goal-truncation-honest.
	res.Truncated = false
	if vs := core.Audit(g, 0, want, goal, res); !flagged(vs, "goal-truncation-honest") {
		t.Fatalf("false truncation flag not flagged: %v", vs)
	}
	res.Truncated = true

	// Misreport the closed-level count: caught as goal-levels-match
	// (and the level histogram no longer accounts for the prefix).
	res.Levels--
	if vs := core.Audit(g, 0, want, goal, res); !flagged(vs, "goal-levels-match") {
		t.Fatalf("wrong closed-level count not flagged: %v", vs)
	}
	res.Levels++

	// Target goal: terminate at a depth-8 vertex's level barrier.
	var deep int32 = -1
	for v, d := range want {
		if d == 8 {
			deep = int32(v)
			break
		}
	}
	tres, err := core.RunGoal(context.Background(), g, 0, core.BFSWL, core.Options{Workers: 4}, core.GoalTo(deep))
	if err != nil {
		t.Fatal(err)
	}
	if vs := core.Audit(g, 0, want, core.GoalTo(deep), tres); len(vs) != 0 {
		t.Fatalf("clean target run flagged: %v", vs)
	}

	// An unbounded goal holds the run to the full oracle.
	full, err := core.Run(g, 0, core.BFSWL, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if vs := core.Audit(g, 0, want, core.Goal{}, full); len(vs) != 0 {
		t.Fatalf("unbounded goal flagged a clean run: %v", vs)
	}
	full.Dist[settled] = -7
	if vs := core.Audit(g, 0, want, core.Goal{}, full); !flagged(vs, "distances-match-oracle") {
		t.Fatalf("unbounded goal missed a corrupted distance: %v", vs)
	}
}

// TestAuditAnswerTierCatches plants one corruption per answer field
// into clean runs: each must yield exactly its named invariant.
func TestAuditAnswerTierCatches(t *testing.T) {
	g, err := gen.LayeredRandom(1500, 7500, 30, 9, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	opt := core.Options{Workers: 4, TrackParents: true}
	k5 := core.Goal{MaxDepth: 5}
	bounded, err := core.RunGoal(context.Background(), g, 0, core.BFSWL, opt, k5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Run(g, 0, core.BFSWL, opt)
	if err != nil {
		t.Fatal(err)
	}
	var deep int32 = -1 // a settled vertex at depth 3
	for v, d := range want {
		if d == 3 {
			deep = int32(v)
			break
		}
	}
	cases := []struct {
		name, invariant string
		goal            core.Goal
		base            *core.Result
		plant           func(r *core.Result)
	}{
		{"early stop", "goal-levels-match", k5, bounded, func(r *core.Result) { r.Levels -= 2 }},
		{"false truncated", "goal-truncation-honest", k5, bounded, func(r *core.Result) { r.Truncated = false }},
		{"unbounded marked truncated", "goal-truncation-honest", core.Goal{}, full, func(r *core.Result) { r.Truncated = true }},
		{"prefix parent at wrong depth", "parents-valid", k5, bounded, func(r *core.Result) {
			r.Parent = append([]int32(nil), r.Parent...)
			r.Parent[deep] = 0
		}},
		{"reached off by one", "reach-matches-oracle", core.Goal{}, full, func(r *core.Result) { r.Reached++ }},
		{"edges off by one", "reach-matches-oracle", core.Goal{}, full, func(r *core.Result) { r.EdgesTraversed-- }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if vs := core.AuditAnswer(g, 0, want, c.goal, c.base); len(vs) != 0 {
				t.Fatalf("clean run flagged: %v", vs)
			}
			bad := *c.base
			c.plant(&bad)
			vs := core.AuditAnswer(g, 0, want, c.goal, &bad)
			if len(vs) != 1 || vs[0].Invariant != c.invariant {
				t.Fatalf("want exactly %s, got %v", c.invariant, vs)
			}
		})
	}
}

// TestSoakGoalDimension sweeps a deep layered graph so the derived
// goals (targets and shallow depth bounds) genuinely truncate runs:
// the sweep must come back clean under core.Audit, some
// cells must actually have terminated early, and the report line must
// say so. The engine sweep reuses one engine per pair across bounded
// and unbounded cells — a leaked truncation (stale goal surviving into
// the next run) would surface as a goal-levels-match violation there.
func TestSoakGoalDimension(t *testing.T) {
	graphs := []GraphSpec{{Kind: "layered", N: 1500, M: 7500, Layers: 30, Seed: 9}}
	profiles := []Profile{{Name: "baseline"}, mustProfile(t, "mixed")}
	for _, engines := range []bool{false, true} {
		var buf bytes.Buffer
		rep, err := Soak(SoakConfig{
			Graphs:     graphs,
			Profiles:   profiles,
			Seeds:      3,
			Workers:    4,
			Engines:    engines,
			Log:        &buf,
			Algorithms: []core.Algorithm{core.Serial, core.BFSWL, core.BFSWSL},
		})
		if err != nil {
			t.Fatalf("engines=%v: %v", engines, err)
		}
		if rep.Failures != 0 {
			t.Fatalf("engines=%v: goal sweep broke invariants:\n%s", engines, buf.String())
		}
		if rep.Truncated == 0 {
			t.Fatalf("engines=%v: no cell terminated early; the goal dimension is dead", engines)
		}
		if !strings.Contains(rep.String(), "goal-truncated") {
			t.Fatalf("engines=%v: report line omits the goal dimension: %s", engines, rep)
		}
	}
}

// TestReplayGoalRun round-trips a goal through a repro artifact: the
// replayed run terminates where the recorded one did and the replay
// audits it under that goal (a full-oracle audit would
// flag every Unreached vertex past the bound).
func TestReplayGoalRun(t *testing.T) {
	r := Repro{
		Graph:     GraphSpec{Kind: "layered", N: 1500, M: 7500, Layers: 30, Seed: 9},
		Source:    0,
		Algorithm: core.BFSWSL,
		Options: RunOptions{
			Workers: 4, TrackParents: true, MaxDepth: 4, Seed: 0xfeed,
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
	if o := got.Options; o.MaxDepth != 4 {
		t.Fatalf("depth bound lost in artifact round-trip: %+v", got.Options)
	}
	vs, res, err := Replay(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("goal replay of a correct run reported violations: %v", vs)
	}
	if !res.Truncated || res.Levels != 4 {
		t.Fatalf("goal replay: Levels=%d Truncated=%v, want 4/true", res.Levels, res.Truncated)
	}

	// The engine-run replay path honors the artifact's goal too.
	got.EngineRun = true
	vs, res, err = Replay(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("engine goal replay reported violations: %v", vs)
	}
	if !res.Truncated || res.Levels != 4 {
		t.Fatalf("engine goal replay: Levels=%d Truncated=%v, want 4/true", res.Levels, res.Truncated)
	}
}
