package chaos

import (
	"testing"

	"optibfs/internal/core"
)

// TestMSLaneSoak sweeps the fused engine's lane audits under benign
// perturbation and under injected panics/stalls. Zero violations
// tolerated: completed lanes exact, partial lanes understate-only.
func TestMSLaneSoak(t *testing.T) {
	cfg := MSLaneConfig{
		Graphs: []GraphSpec{
			{Kind: "rmat", N: 1024, M: 8192, Seed: 1},
			{Kind: "layered", N: 1200, M: 6000, Layers: 40, Seed: 3},
			{Kind: "star", N: 512, Seed: 4},
		},
		Profiles: []Profile{
			{Name: "baseline"},
			{Name: "jitter", Prob: uniformProb(0.05), Yields: 1},
			{Name: "front-races", Prob: prob(core.ChaosFrontStore, 0.7), Yields: 3, Spin: 32},
			// Malign faults: perturbations at the level barrier either
			// panic a worker or stall it past the soak's 50ms watchdog;
			// both must abort into a typed error with understate-only
			// partial lanes.
			{Name: "ms-faults", Prob: prob(core.ChaosStall, 0.4), Yields: 1,
				PanicProb: 0.5, StallMillis: 150},
		},
		Rounds:  3,
		Workers: 4,
	}
	rep, err := MSLaneSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if rep.Failures > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d fused runs broke lane invariants", rep.Failures)
	}
	if rep.Runs != 3*4*3 {
		t.Fatalf("runs = %d, want %d", rep.Runs, 3*4*3)
	}
	if rep.LanesAudited == 0 {
		t.Fatal("no lanes audited")
	}
	if rep.Panics == 0 {
		t.Fatal("fault profile injected no panics (audit under faults unexercised)")
	}
	if rep.Stalls == 0 {
		t.Fatal("fault profile produced no detected stalls (fused watchdog unexercised)")
	}
}
