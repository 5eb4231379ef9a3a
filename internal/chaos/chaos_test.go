package chaos

import (
	"errors"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

func TestProfilesNamedAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if p.Name == "" {
			t.Fatal("unnamed profile")
		}
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		got, err := ProfileByName(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("ProfileByName(%q) = %+v, %v", p.Name, got, err)
		}
	}
	for _, want := range []string{"baseline", "steal-storm", "front-races", "phase2-dup", "mixed"} {
		if !seen[want] {
			t.Fatalf("profile %q missing", want)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestInjectorDeterministicStreams drives a fixed firing sequence
// through injectors and checks the decision stream is a pure function
// of (profile, seed, worker).
func TestInjectorDeterministicStreams(t *testing.T) {
	prof := Profile{Name: "half", Prob: uniformProb(0.5)}
	drive := func(seed uint64) (int64, int64) {
		in := NewInjector(prof, seed, 2)
		for i := 0; i < 4000; i++ {
			in.At(core.ChaosSlotZero, i%2, int64(i))
		}
		return in.Injections(), in.Fired(core.ChaosSlotZero)
	}
	a1, f1 := drive(42)
	a2, f2 := drive(42)
	if a1 != a2 || f1 != f2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", a1, f1, a2, f2)
	}
	if f1 != 4000 {
		t.Fatalf("Fired = %d, want 4000", f1)
	}
	// Prob 0.5 over 4000 draws: far from both 0 and 4000.
	if a1 < 1500 || a1 > 2500 {
		t.Fatalf("injections %d implausible for p=0.5", a1)
	}
	b, _ := drive(43)
	if b == a1 {
		t.Fatalf("different seeds produced identical injection counts %d (suspicious)", b)
	}
}

func TestInjectorZeroProbabilityInjectsNothing(t *testing.T) {
	in := NewInjector(Profile{Name: "baseline"}, 1, 4)
	for i := 0; i < 1000; i++ {
		in.At(core.ChaosFrontStore, i%4, 0)
	}
	if in.Injections() != 0 {
		t.Fatalf("baseline profile injected %d times", in.Injections())
	}
	if in.Fired(core.ChaosFrontStore) != 1000 {
		t.Fatalf("Fired = %d", in.Fired(core.ChaosFrontStore))
	}
}

func TestInjectorLevelAuditRecordsViolations(t *testing.T) {
	in := NewInjector(Profile{Name: "baseline"}, 1, 1)
	in.LevelEnd(0, 0)
	in.LevelEnd(3, 2)
	vs := in.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the level-3 report", vs)
	}
}

// TestInjectedRunsStayCorrect is the heart of the harness: every
// benign profile hammering every lockfree variant must still produce
// exact BFS levels, pass the audits, and leave no queue slot
// unconsumed. Disruptive profiles legitimately abort runs; for those
// the contract shifts — the process must survive, errors must be the
// typed recovery errors, and a run that does complete must still be
// exactly correct.
func TestInjectedRunsStayCorrect(t *testing.T) {
	g, err := gen.ChungLu(3000, 24000, 2.0, 11, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	var injections, aborts int64
	for _, prof := range Profiles() {
		for _, algo := range []core.Algorithm{core.BFSCL, core.BFSDL, core.BFSWL, core.BFSWSL} {
			in := NewInjector(prof, 99, 8)
			opt := core.Options{
				Workers: 8, Pools: 2, SegmentSize: 1, Seed: 5,
				Phase2Stealing: true, Chaos: in,
			}
			if prof.Disruptive() {
				opt.StallTimeout = 50 * time.Millisecond
			}
			res, err := core.Run(g, 0, algo, opt)
			if err != nil {
				var wp *core.WorkerPanicError
				var se *core.StallError
				if prof.Disruptive() && (errors.As(err, &wp) || errors.As(err, &se)) {
					if res == nil {
						t.Fatalf("%s under %s: aborted run returned no partial result", algo, prof.Name)
					}
					aborts++
					injections += in.Injections()
					continue
				}
				t.Fatal(err)
			}
			vs := core.Audit(g, 0, want, core.Goal{}, res)
			vs = append(vs, levelViolations(in)...)
			if len(vs) != 0 {
				t.Fatalf("%s under %s: %v", algo, prof.Name, vs)
			}
			injections += in.Injections()
		}
	}
	if injections == 0 {
		t.Fatal("no profile injected anything: the chaos scheduler is inert")
	}
	if aborts == 0 {
		t.Fatal("no disruptive profile aborted anything: malign-fault injection is inert")
	}
}
