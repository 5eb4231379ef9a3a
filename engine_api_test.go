package optibfs

import (
	"context"
	"strings"
	"testing"
)

// TestEngineAPI checks the public Engine across the dispatch families:
// core-backed, direction-optimizing, and the baseline one-shot
// fallback all match the serial reference across repeated runs.
func TestEngineAPI(t *testing.T) {
	g, err := NewPowerLaw(2048, 16384, 2.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialBFS(g, 0)
	for _, algo := range []Algorithm{Serial, BFSCL, BFSWSL, DirectionOptimizing, Baseline1, Baseline2Hybrid} {
		e, err := NewEngine(g, algo, &Options{Workers: 4, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := e.Algorithm(); got != algo {
			t.Fatalf("Algorithm() = %q, want %q", got, algo)
		}
		if e.Graph() != g {
			t.Fatalf("%s: Graph() does not return the bound graph", algo)
		}
		for i := 0; i < 3; i++ {
			e.Reseed(uint64(i) + 1)
			res, err := e.Run(0)
			if err != nil {
				t.Fatalf("%s run %d: %v", algo, i, err)
			}
			for v, d := range want {
				if res.Dist[v] != d {
					t.Fatalf("%s run %d: dist[%d] = %d, want %d", algo, i, v, res.Dist[v], d)
				}
			}
		}
		e.Close()
		if _, err := e.Run(0); err == nil {
			t.Fatalf("%s: Run on a closed engine succeeded", algo)
		}
	}
}

// TestEngineRunGoalEveryAlgorithm: the zero Goal is an unbounded run on
// every algorithm, baselines included, with the same distances as Run;
// a bounded goal is refused only where no goal machinery exists.
func TestEngineRunGoalEveryAlgorithm(t *testing.T) {
	g, err := NewPowerLaw(1024, 8192, 2.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialBFS(g, 0)
	ctx := context.Background()
	for _, algo := range Algorithms {
		e, err := NewEngine(g, algo, &Options{Workers: 4, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		res, err := e.RunGoal(ctx, 0, Goal{})
		if err != nil {
			t.Fatalf("%s: zero Goal: %v", algo, err)
		}
		if res.Truncated {
			t.Fatalf("%s: zero Goal run marked truncated", algo)
		}
		for v, d := range want {
			if res.Dist[v] != d {
				t.Fatalf("%s: zero Goal dist[%d] = %d, want %d", algo, v, res.Dist[v], d)
			}
		}
		res, err = e.RunGoal(ctx, 0, Goal{MaxDepth: 2})
		if strings.HasPrefix(string(algo), "Baseline") {
			if err == nil {
				t.Fatalf("%s: bounded goal accepted by a runtime without goal machinery", algo)
			}
		} else if err != nil {
			t.Fatalf("%s: bounded goal: %v", algo, err)
		} else if res.Levels != 2 || !res.Truncated {
			t.Fatalf("%s: depth-2 goal: Levels=%d Truncated=%v", algo, res.Levels, res.Truncated)
		}
		e.Close()
	}
}

// TestEngineShardedPublic checks that the retired Options.Shards fails
// loudly on the public surface — one-shot BFS and the reusable Engine —
// instead of silently running a single engine, while 0 and 1 still
// run.
func TestEngineShardedPublic(t *testing.T) {
	g, err := NewPowerLaw(512, 4096, 2.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, -1} {
		opt := &Options{Workers: 2, Shards: shards}
		if _, err := BFS(g, 0, BFSWSL, opt); err == nil || !strings.Contains(err.Error(), "retired") {
			t.Fatalf("BFS shards=%d: got %v, want the retirement error", shards, err)
		}
		e, err := NewEngine(g, BFSWL, opt)
		if err == nil || !strings.Contains(err.Error(), "retired") {
			if e != nil {
				e.Close()
			}
			t.Fatalf("NewEngine shards=%d: got %v, want the retirement error", shards, err)
		}
	}
	want := SerialBFS(g, 0)
	for _, shards := range []int{0, 1} {
		e, err := NewEngine(g, BFSWL, &Options{Workers: 2, Shards: shards})
		if err != nil {
			t.Fatalf("NewEngine shards=%d: %v", shards, err)
		}
		res, err := e.Run(0)
		e.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for v, d := range want {
			if res.Dist[v] != d {
				t.Fatalf("shards=%d: dist[%d] = %d, want %d", shards, v, res.Dist[v], d)
			}
		}
	}
}

// TestEngineRunMany checks the batched path: every source is visited
// in order and an error from visit stops the batch.
func TestEngineRunMany(t *testing.T) {
	g, err := NewRandom(1000, 6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, BFSWSL, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sources := []int32{0, 5, 9, 0}
	var seen []int
	err = e.RunMany(sources, func(i int, res *Result) error {
		if res.Reached == 0 {
			t.Fatalf("source %d: empty result", sources[i])
		}
		seen = append(seen, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(sources) {
		t.Fatalf("visited %d sources, want %d", len(seen), len(sources))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("visit order %v not sequential", seen)
		}
	}
	stop := e.RunMany(sources, func(i int, res *Result) error {
		if i == 1 {
			return context.Canceled
		}
		return nil
	})
	if stop != context.Canceled {
		t.Fatalf("visit error not propagated: %v", stop)
	}
}

// TestEngineUnknownAlgorithm checks NewEngine's validation.
func TestEngineUnknownAlgorithm(t *testing.T) {
	g, err := NewRandom(100, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(g, "no-such-algo", nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := NewEngine(nil, BFSCL, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewEngine(nil, Baseline1, nil); err == nil {
		t.Fatal("nil graph accepted for baseline fallback")
	}
}

// TestEngineRunContextCancel checks a canceled context surfaces and
// leaves the engine reusable.
func TestEngineRunContextCancel(t *testing.T) {
	g, err := NewRandom(1000, 6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialBFS(g, 0)
	e, err := NewEngine(g, BFSCL, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, 0); err == nil {
		t.Fatal("pre-canceled context did not error")
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Fatalf("after cancel: dist[%d] = %d, want %d", v, res.Dist[v], d)
		}
	}
}
