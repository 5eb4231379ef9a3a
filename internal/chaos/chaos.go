// Package chaos is the deterministic fault-injection ("chaos
// scheduler") and invariant-audit harness for the optimistic BFS
// protocols in internal/core.
//
// The paper's correctness claim is that the protocols' deliberate
// races — torn (q, f, r) descriptor reads, backward-moving fronts,
// duplicated dispatch units — are benign. End-state distance checks
// alone cannot provoke the rare interleavings on a fast machine, and
// cannot localize a violation when one slips through. This package
// attacks both gaps:
//
//   - Injector implements core.ChaosHook: seeded per-worker decision
//     streams decide, at each instrumented racy point, whether to
//     stretch the read→write window with scheduler yields and spin
//     work, making stale steals, overlapping segments, and duplicate
//     phase-2 units common instead of one-in-a-million.
//   - Every finished run is judged by the shared audit contract,
//     core.Audit (invariants tabled in DESIGN.md, "The audit
//     contract"): the answer fields against the serial oracle under
//     the run's goal, plus discovery conservation, pop coverage and
//     level-size accounting. The injector adds the per-level
//     unconsumed-slot and flush audits from the lockfree runners.
//   - Soak sweeps variants × graphs × profiles × seeds × goals,
//     auditing every run; a failure emits a minimal JSON repro
//     artifact (graph params, seeds, options, profile) that Replay
//     re-executes and re-audits. MSLaneSoak and RegistrySoak hold
//     fused lanes and registry answers to the contract's answer tier,
//     core.AuditAnswer.
package chaos

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/rng"
)

// Profile describes one perturbation shape: the probability, per chaos
// point, that a worker passing it is delayed, and how heavy the delay
// is. The zero value perturbs nothing (a pure-observation baseline).
// PanicProb and StallMillis graduate a profile from benign-race
// provocation to malign-fault injection (see Disruptive).
type Profile struct {
	// Name identifies the profile in reports and repro artifacts.
	Name string `json:"name"`
	// Prob[p] is the probability that a firing of core.ChaosPoint p
	// perturbs the worker.
	Prob [core.NumChaosPoints]float64 `json:"prob"`
	// Yields is how many scheduler yields one perturbation performs.
	Yields int `json:"yields"`
	// Spin adds busy-work iterations per perturbation, jitter finer
	// than a full scheduler yield.
	Spin int `json:"spin"`
	// PanicProb is the probability that a perturbation panics the
	// worker instead of delaying it, exercising the engine's recovery
	// barrier (the run must end in *core.WorkerPanicError, never a
	// process crash). Drawn from the same per-worker stream as the
	// perturbation decision, so panics replay deterministically per
	// (profile, seed, worker, firing count).
	PanicProb float64 `json:"panic_prob,omitempty"`
	// StallMillis, when positive, turns perturbations at
	// core.ChaosStall into a sleep of this many milliseconds —
	// simulating a wedged worker so the soak can verify the stall
	// watchdog fires within Options.StallTimeout. Other points are
	// unaffected (their perturbations stay yields/spin/panic).
	StallMillis int `json:"stall_millis,omitempty"`
	// FlipProb is the probability that a hybrid engine's alpha/beta
	// direction decision is inverted at each level barrier
	// (core.ChaosDirectionFlip via core.ChaosDirectionController) —
	// driving the frontier representation conversions through
	// boundaries the heuristics would rarely pick. Drawn from a
	// dedicated stream (the decision runs single-threaded on the
	// driver, not on a worker), so flips replay deterministically per
	// (profile, seed, decision count). Only benign: a flipped decision
	// changes work shape, never correctness.
	FlipProb float64 `json:"flip_prob,omitempty"`
}

// Disruptive reports whether the profile injects malign faults —
// panics or forced stalls — that legitimately abort runs. The soak
// treats such aborts as expected recovery outcomes (counted, engine
// discarded) rather than harness failures, and arms the watchdog.
func (p Profile) Disruptive() bool { return p.PanicProb > 0 || p.StallMillis > 0 }

// prob builds a per-point probability table from (point, prob) pairs.
func prob(pairs ...any) [core.NumChaosPoints]float64 {
	var t [core.NumChaosPoints]float64
	for i := 0; i < len(pairs); i += 2 {
		t[pairs[i].(core.ChaosPoint)] = pairs[i+1].(float64)
	}
	return t
}

// uniformProb gives every chaos point the same perturbation probability.
func uniformProb(p float64) [core.NumChaosPoints]float64 {
	var t [core.NumChaosPoints]float64
	for i := range t {
		t[i] = p
	}
	return t
}

// Profiles returns the built-in perturbation profiles, mildest first.
// "baseline" injects nothing (pure differential run + audits);
// the targeted profiles each hammer one protocol window.
func Profiles() []Profile {
	return []Profile{
		{Name: "baseline"},
		{Name: "jitter", Prob: uniformProb(0.02), Yields: 1},
		{Name: "steal-storm", Prob: prob(core.ChaosStealPublish, 0.8, core.ChaosSlotZero, 0.01), Yields: 4, Spin: 64},
		{Name: "drain-lag", Prob: prob(core.ChaosSlotZero, 0.05, core.ChaosDrainAdvance, 0.05), Yields: 2},
		{Name: "front-races", Prob: prob(core.ChaosFrontStore, 0.7, core.ChaosPoolStore, 0.7), Yields: 3, Spin: 32},
		{Name: "phase2-dup", Prob: prob(core.ChaosPhase2Advance, 0.8), Yields: 3},
		// flush-storm interleaves steals against half-flushed publication
		// blocks: stalling workers inside flushBlock (between the block
		// copy and the tail store) while steal publications and slot
		// zeroing race around them maximizes the time output queues spend
		// partially published.
		{Name: "flush-storm", Prob: prob(core.ChaosBlockFlush, 0.8, core.ChaosStealPublish, 0.5, core.ChaosSlotZero, 0.02), Yields: 3, Spin: 32},
		{Name: "mixed", Prob: uniformProb(0.1), Yields: 2, Spin: 16},
		// direction-flip attacks the hybrid conversions: invert roughly a
		// third of the alpha/beta decisions so bottom-up levels start on
		// tiny frontiers, top-down resumes mid-growth, and the bitmap↔
		// queue conversions cross hostile boundaries — with mild benign
		// jitter underneath so the conversions overlap in-flight races.
		// Meaningful only on runs with Options.Hybrid; elsewhere it
		// degrades to plain jitter.
		{Name: "direction-flip", Prob: uniformProb(0.05), Yields: 2, Spin: 16, FlipProb: 0.35},
		// panic-storm is the malign-fault profile: every worker rolls at
		// the top of every level (ChaosStall) and a perturbation there
		// either panics (PanicProb) or sleeps StallMillis; the sparse
		// mid-protocol points panic from inside drains and steals. Runs
		// under this profile are expected to abort — the soak asserts the
		// process survives, the typed errors surface, and forced stalls
		// are detected within the watchdog window.
		{Name: "panic-storm", Prob: prob(core.ChaosStall, 0.9, core.ChaosSlotZero, 0.01, core.ChaosStealPublish, 0.2, core.ChaosBlockFlush, 0.05), Yields: 1, PanicProb: 0.25, StallMillis: 150},
	}
}

// ProfileByName finds a built-in profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q", name)
}

// injWorker is one worker's private injector lane: its decision
// stream and counts, padded so lanes never share a cache line (the
// injector sits on the protocols' hot paths while enabled).
type injWorker struct {
	r        rng.SplitMix64
	fired    [core.NumChaosPoints]int64
	injected int64
	panics   int64
	stalls   int64
	spinSink uint64 // defeats dead-code elimination of the spin loop
	_        [64]byte
}

// Injector implements core.ChaosHook (plus core.ChaosLevelAuditor and
// core.ChaosFlushAuditor)
// with deterministic seeded per-worker decision streams: worker w's
// k-th pass through the hooks always draws the same random number for
// a given (profile, seed), so an interleaving provoked once can be
// provoked again. Safe for concurrent use by all workers.
type Injector struct {
	prof    Profile
	seed    uint64
	workers []injWorker

	// dirR is the direction-flip decision stream (FlipProb). The hybrid
	// decision runs single-threaded on the driver goroutine, which has
	// no worker lane of its own, and soak reuse must stay race-clean,
	// so the stream sits behind its own mutex instead of a worker lane.
	dirMu sync.Mutex
	dirR  rng.SplitMix64
	flips int64

	mu         sync.Mutex
	violations []string
}

// NewInjector builds an injector for `workers` worker goroutines.
func NewInjector(prof Profile, seed uint64, workers int) *Injector {
	if workers < 1 {
		workers = 1
	}
	in := &Injector{prof: prof, seed: seed, workers: make([]injWorker, workers)}
	for i := range in.workers {
		in.workers[i].r = *rng.NewSplitMix64(rng.Mix64(seed ^ rng.Mix64(uint64(i)+0xc4a05)))
	}
	in.dirR = *rng.NewSplitMix64(rng.Mix64(seed ^ 0xd17ec7))
	return in
}

// Profile returns the profile the injector was built with.
func (in *Injector) Profile() Profile { return in.prof }

// Seed returns the injection seed the injector was built with.
func (in *Injector) Seed() uint64 { return in.seed }

// At implements core.ChaosHook: consult worker's decision stream and
// possibly stretch the racy window with yields and spin work — or,
// under a Disruptive profile, panic the worker or put it to sleep.
func (in *Injector) At(point core.ChaosPoint, worker int, value int64) {
	w := &in.workers[worker]
	w.fired[point]++
	p := in.prof.Prob[point]
	if p <= 0 {
		return
	}
	// 53-bit uniform draw in [0,1), the xoshiro Float64 construction.
	if float64(w.r.Next()>>11)/(1<<53) >= p {
		return
	}
	w.injected++
	if pp := in.prof.PanicProb; pp > 0 && float64(w.r.Next()>>11)/(1<<53) < pp {
		// The panic draw consumes one stream step whether or not it
		// fires, keeping later decisions deterministic either way.
		// ChaosDirectionFlip runs on the driver goroutine outside any
		// recovery barrier (see its doc), so the malign fault is
		// suppressed there — after the draw, keeping the stream aligned.
		if point != core.ChaosDirectionFlip {
			w.panics++
			panic(fmt.Sprintf("chaos: injected panic at %s (worker %d, value %d)", point, worker, value))
		}
	}
	if point == core.ChaosStall && in.prof.StallMillis > 0 {
		w.stalls++
		time.Sleep(time.Duration(in.prof.StallMillis) * time.Millisecond)
		return
	}
	for i := 0; i < in.prof.Yields; i++ {
		runtime.Gosched()
	}
	if n := in.prof.Spin; n > 0 {
		x := uint64(value)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		w.spinSink += x
	}
}

// DirectionChoice implements core.ChaosDirectionController: with
// probability Profile.FlipProb, invert the hybrid engine's alpha/beta
// decision for the next level. The draw always consumes one step of
// the dedicated direction stream, so the flip schedule is a
// deterministic function of (profile, seed, decision index) regardless
// of what the heuristics chose. Runs on the driver goroutine between
// level barriers — never panics, never sleeps.
func (in *Injector) DirectionChoice(level int32, bottomUp bool) bool {
	fp := in.prof.FlipProb
	if fp <= 0 {
		return bottomUp
	}
	in.dirMu.Lock()
	flip := float64(in.dirR.Next()>>11)/(1<<53) < fp
	if flip {
		in.flips++
	}
	in.dirMu.Unlock()
	if flip {
		return !bottomUp
	}
	return bottomUp
}

// DirectionFlips returns how many hybrid direction decisions the
// injector inverted.
func (in *Injector) DirectionFlips() int64 {
	in.dirMu.Lock()
	defer in.dirMu.Unlock()
	return in.flips
}

// LevelEnd implements core.ChaosLevelAuditor: any unconsumed input-
// queue slot after a level barrier is a protocol violation (the
// zero-on-read discipline guarantees full consumption).
func (in *Injector) LevelEnd(level int32, unconsumed int64) {
	if unconsumed == 0 {
		return
	}
	in.mu.Lock()
	in.violations = append(in.violations,
		fmt.Sprintf("level %d left %d input-queue slots unconsumed", level, unconsumed))
	in.mu.Unlock()
}

// FlushEnd implements core.ChaosFlushAuditor: any discovery still
// unpublished after a level barrier — sitting in a private block or in
// an output queue beyond its published tail — is a protocol violation
// (the barrier flush guarantees full publication).
func (in *Injector) FlushEnd(level int32, unpublished int64) {
	if unpublished == 0 {
		return
	}
	in.mu.Lock()
	in.violations = append(in.violations,
		fmt.Sprintf("level %d left %d discoveries unpublished at the barrier", level, unpublished))
	in.mu.Unlock()
}

// Injections returns how many perturbations were performed.
func (in *Injector) Injections() int64 {
	var n int64
	for i := range in.workers {
		n += in.workers[i].injected
	}
	return n
}

// Panics returns how many injected panics the workers threw.
func (in *Injector) Panics() int64 {
	var n int64
	for i := range in.workers {
		n += in.workers[i].panics
	}
	return n
}

// Stalls returns how many forced stalls (ChaosStall sleeps) were
// injected.
func (in *Injector) Stalls() int64 {
	var n int64
	for i := range in.workers {
		n += in.workers[i].stalls
	}
	return n
}

// Fired returns how many times the given chaos point was passed
// (perturbed or not) across all workers.
func (in *Injector) Fired(point core.ChaosPoint) int64 {
	var n int64
	for i := range in.workers {
		n += in.workers[i].fired[point]
	}
	return n
}

// Violations returns the level-audit violations recorded so far.
func (in *Injector) Violations() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.violations...)
}
