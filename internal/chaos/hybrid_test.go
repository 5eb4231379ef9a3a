package chaos

import (
	"bytes"
	"testing"

	"optibfs/internal/core"
	"optibfs/internal/gen"
)

// TestInjectorDirectionFlipsHybridRun drives one hybrid run under the
// direction-flip profile and checks the controller path end to end:
// decisions get inverted (the flip counter moves), the run still
// matches the oracle, and the hybrid-relaxed audit stays clean.
func TestInjectorDirectionFlipsHybridRun(t *testing.T) {
	g, err := gen.Graph500RMAT(2048, 16384, 7, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := mustProfile(t, "direction-flip")
	var flipped bool
	for seed := uint64(1); seed <= 8; seed++ {
		inj := NewInjector(prof, seed, 4)
		res, err := core.Run(g, 0, core.BFSWSL, core.Options{
			Workers: 4, Hybrid: true, TrackParents: true, Chaos: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		if vs := core.Audit(g, 0, nil, core.Goal{}, res); len(vs) != 0 {
			t.Fatalf("seed %d: audit violations under forced flips: %v", seed, vs)
		}
		if vs := levelViolations(inj); len(vs) != 0 {
			t.Fatalf("seed %d: level audit violations: %v", seed, vs)
		}
		flipped = flipped || inj.DirectionFlips() > 0
	}
	if !flipped {
		t.Fatal("direction-flip profile never inverted a decision across 8 seeds")
	}
}

// TestInjectorDirectionFlipStreamDeterministic pins the replay
// property: same (profile, seed) ⇒ same flip schedule, independent of
// what the heuristics chose.
func TestInjectorDirectionFlipStreamDeterministic(t *testing.T) {
	prof := mustProfile(t, "direction-flip")
	// Feed one injector all-false decisions and another all-true: the
	// outputs then read directly as each stream's flip schedule, which
	// must be identical for the same (profile, seed).
	schedule := func(in bool) []bool {
		inj := NewInjector(prof, 42, 4)
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.DirectionChoice(int32(i), in) != in
		}
		return out
	}
	a, b := schedule(false), schedule(true)
	var flips int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip schedule diverged at decision %d: %v vs %v", i, a, b)
		}
		if a[i] {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("64 decisions at FlipProb 0.35 flipped nothing")
	}
}

// TestSoakHybridPinned is the hybrid soak dimension: every parallel
// lockfree family, with Hybrid pinned on under the direction-flip
// profile — bottom-up levels, representation conversions, and forced
// switches all crossing the injector's benign jitter — and the
// differential audit must stay clean.
func TestSoakHybridPinned(t *testing.T) {
	graphs := []GraphSpec{
		{Kind: "chunglu", N: 1024, M: 8192, Gamma: 2.0, Seed: 2},
		{Kind: "complete", N: 256, Seed: 5},
	}
	if testing.Short() {
		graphs = graphs[:1]
	}
	var buf bytes.Buffer
	rep, err := Soak(SoakConfig{
		Graphs:     graphs,
		Profiles:   []Profile{mustProfile(t, "direction-flip")},
		Seeds:      2,
		Workers:    4,
		Hybrid:     true,
		Log:        &buf,
		Algorithms: []core.Algorithm{core.BFSWL, core.BFSWSL, core.BFSEL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("hybrid sweep broke invariants:\n%s", buf.String())
	}
	if rep.Runs == 0 {
		t.Fatal("no runs")
	}
}

// TestSoakHybridSerialStillRuns checks the guard that keeps the serial
// differential baseline in a Hybrid-pinned sweep: Serial rejects the
// option, so the soak must drop it for those cells instead of erroring
// the whole sweep.
func TestSoakHybridSerialStillRuns(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Soak(SoakConfig{
		Graphs:     []GraphSpec{{Kind: "star", N: 256, Seed: 4}},
		Profiles:   []Profile{{Name: "baseline"}},
		Seeds:      1,
		Workers:    4,
		Hybrid:     true,
		Log:        &buf,
		Algorithms: []core.Algorithm{core.Serial, core.BFSWL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || rep.Runs != 4 { // two cells, two runs each
		t.Fatalf("runs=%d failures=%d:\n%s", rep.Runs, rep.Failures, buf.String())
	}
}
