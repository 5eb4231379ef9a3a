package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

var shardCounts = []int{1, 2, 4}

// newShardedForTest partitions g and builds a sharded engine, clamping
// the shard count like NewBackend so tiny suite graphs participate.
func newShardedForTest(t *testing.T, g *graph.CSR, shards int, algo Algorithm, opt Options) *ShardedEngine {
	t.Helper()
	if n := g.NumVertices(); n > 0 && int64(shards) > int64(n) {
		shards = int(n)
	}
	sg, err := graph.Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewShardedEngine(sg, algo, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestShardedMatchesOracleEverywhere(t *testing.T) {
	graphs := testGraphs(t)
	for _, shards := range shardCounts {
		for _, algo := range parallelAlgos {
			t.Run(string(algo)+"/"+string(rune('0'+shards)), func(t *testing.T) {
				for name, g := range graphs {
					e := newShardedForTest(t, g, shards, algo, Options{Workers: 4})
					res, err := e.Run(0)
					if err != nil {
						e.Close()
						t.Fatalf("%s: %v", name, err)
					}
					func() {
						defer e.Close()
						defer func() {
							if t.Failed() {
								t.Logf("graph %s shards %d", name, shards)
							}
						}()
						requireClean(t, Audit(g, 0, nil, Goal{}, res), "%s/%s", algo, name)
					}()
				}
			})
		}
	}
}

func TestShardedTracksValidParents(t *testing.T) {
	g, err := gen.Graph500RMAT(4096, 32768, 11, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		e := newShardedForTest(t, g, shards, BFSWL, Options{Workers: 4, TrackParents: true})
		res, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.ValidateParents(g, 0, res.Dist, res.Parent); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		e.Close()
	}
}

// Repeated warm runs from rotating sources must stay correct: the
// epoch bump, exchange reset, and merged finish all reuse pooled state.
func TestShardedRepeatedRunsStayCorrect(t *testing.T) {
	g, err := gen.ChungLu(3000, 20000, 2.1, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := newShardedForTest(t, g, 3, BFSWSL, Options{Workers: 4, TrackParents: true})
	for i := 0; i < 12; i++ {
		src := int32(i*211) % g.NumVertices()
		res, err := e.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, src)); err != nil {
			t.Fatalf("run %d src %d: %v", i, src, err)
		}
		if err := graph.ValidateParents(g, src, res.Dist, res.Parent); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	e.Close()
}

// shardFlushCounter counts ChaosShardFlush firings and records the
// largest worker id seen at any point, verifying the per-shard id
// offsets reach the hook.
type shardFlushCounter struct {
	flushes   int64
	maxWorker int64
}

func (h *shardFlushCounter) At(point ChaosPoint, worker int, value int64) {
	if point == ChaosShardFlush {
		atomic.AddInt64(&h.flushes, 1)
	}
	for {
		cur := atomic.LoadInt64(&h.maxWorker)
		if int64(worker) <= cur || atomic.CompareAndSwapInt64(&h.maxWorker, cur, int64(worker)) {
			break
		}
	}
}

// A multi-shard run over a connected graph must actually exercise the
// exchange (remote discoveries exist whenever edges cross the cut) and
// must report hook worker ids offset per shard.
func TestShardedExchangeObservable(t *testing.T) {
	g, err := gen.ErdosRenyi(2000, 16000, 9, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hook := &shardFlushCounter{}
	e := newShardedForTest(t, g, 4, BFSCL, Options{Workers: 3, Chaos: hook})
	defer e.Close()
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&hook.flushes) == 0 {
		t.Fatal("4-shard run on a connected ER graph published no exchange blocks")
	}
	if got := atomic.LoadInt64(&hook.maxWorker); got < 3 {
		t.Fatalf("max hook worker id %d; want >= 3 (shard-offset ids)", got)
	}
}

// flushResidueAuditor fails the run if any level barrier left
// unpublished entries, including exchange residue.
type flushResidueAuditor struct{ residue int64 }

func (h *flushResidueAuditor) At(ChaosPoint, int, int64) {}
func (h *flushResidueAuditor) FlushEnd(level int32, unpublished int64) {
	atomic.AddInt64(&h.residue, unpublished)
}

func TestShardedFlushAuditClean(t *testing.T) {
	g, err := gen.Graph500RMAT(2048, 16384, 17, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hook := &flushResidueAuditor{}
	e := newShardedForTest(t, g, 4, BFSWL, Options{Workers: 4, Chaos: hook})
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if r := atomic.LoadInt64(&hook.residue); r != 0 {
		t.Fatalf("flush audit saw %d unpublished entries across exchange barriers", r)
	}
}

func TestShardedWorkerPanicPoisons(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 18000, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	e := newShardedForTest(t, g, 2, BFSWL,
		Options{Workers: 4, Chaos: &panicOnceHook{}})
	res, err := e.Run(0)
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("got %v, want *WorkerPanicError", err)
	}
	if res == nil {
		t.Fatal("poisoned run returned no partial result")
	}
	if _, err := e.Run(0); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("second run: got %v, want ErrPoisoned", err)
	}
	e.Close()
	// A fresh sharded engine over the same partition still answers.
	e2 := newShardedForTest(t, g, 2, BFSWL, Options{Workers: 4})
	res2, err := e2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.EqualDistances(res2.Dist, want); err != nil {
		t.Fatal(err)
	}
	e2.Close()
}

func TestShardedStallDetection(t *testing.T) {
	g, err := gen.ErdosRenyi(3000, 18000, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := newShardedForTest(t, g, 2, BFSCL, Options{
		Workers:      4,
		StallTimeout: 100 * time.Millisecond,
		Chaos:        &sleepHook{d: 800 * time.Millisecond},
	})
	defer e.Close()
	res, err := e.Run(0)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *StallError", err)
	}
	if res == nil {
		t.Fatal("stalled run returned no partial result")
	}
	// Stalls leave the engine reusable once the fault source is gone.
	e.SetChaos(nil)
	res, err = e.Run(0)
	if err != nil {
		t.Fatalf("run after stall: %v", err)
	}
	if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestShardedCancellation(t *testing.T) {
	g, err := gen.Path(4000)
	if err != nil {
		t.Fatal(err)
	}
	e := newShardedForTest(t, g, 2, BFSWL, Options{Workers: 2})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The engine stays reusable after cancellation.
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestShardedReseedReproduces(t *testing.T) {
	g, err := gen.ChungLu(2048, 14000, 2.2, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := newShardedForTest(t, g, 3, BFSWSL, Options{Workers: 4, Seed: 99})
	defer e.Close()
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	e.Reseed(99)
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, Audit(g, 0, nil, Goal{}, res), "reseeded sharded run")
}

func TestShardedConstructionErrors(t *testing.T) {
	g, err := gen.Path(64)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := graph.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedEngine(nil, BFSWL, Options{}); err == nil {
		t.Fatal("nil partition accepted")
	}
	if _, err := NewShardedEngine(sg, Serial, Options{}); err == nil {
		t.Fatal("serial baseline accepted for sharded execution")
	}
	if _, err := NewShardedEngine(sg, BFSWL, Options{Reorder: ReorderDegree}); err == nil {
		t.Fatal("reorder accepted for sharded execution")
	}
	if _, err := NewShardedEngine(sg, Algorithm("nope"), Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Trace and timeline are stripped, not rejected.
	e, err := NewShardedEngine(sg, BFSWL, Options{Workers: 2, TraceCapacity: 64, LevelTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if opt := e.Options(); opt.TraceCapacity != 0 || opt.LevelTimeline {
		t.Fatalf("trace/timeline not stripped: %+v", opt)
	}
	res, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil || res.LevelStats != nil {
		t.Fatal("sharded result carries trace/timeline")
	}
}

func TestNewBackendRouting(t *testing.T) {
	g, err := gen.ErdosRenyi(500, 2500, 1, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo    Algorithm
		shards  int
		sharded bool
	}{
		{BFSWL, 0, false},
		{BFSWL, 1, false},
		{BFSWL, 2, true},
		{Serial, 4, false}, // serial ignores the shard count
	}
	for _, tc := range cases {
		b, err := NewBackend(g, tc.algo, Options{Workers: 2, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		_, isSharded := b.(*ShardedEngine)
		if isSharded != tc.sharded {
			t.Fatalf("%s shards=%d: sharded=%v, want %v", tc.algo, tc.shards, isSharded, tc.sharded)
		}
		res, err := b.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(g, 0)); err != nil {
			t.Fatal(err)
		}
		b.Close()
	}
	// Shard counts beyond the vertex count are clamped, not rejected.
	tiny, err := gen.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(tiny, BFSWL, Options{Workers: 2, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res, err := b.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.EqualDistances(res.Dist, graph.ReferenceBFS(tiny, 0)); err != nil {
		t.Fatal(err)
	}
}

// Warm sharded runs must not allocate: every queue, block, exchange
// buffer, and merged-result array is pooled, and the crews park
// between phases instead of respawning.
func TestShardedWarmRunsDoNotAllocate(t *testing.T) {
	g, err := gen.Graph500RMAT(4096, 32768, 23, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := newShardedForTest(t, g, 4, BFSWL, Options{Workers: 4, TrackParents: true})
	defer e.Close()
	for i := 0; i < 4; i++ { // warm every growth path
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	// The crews' gate protocol allocates nothing; allow the
	// same small slack the Engine steady-state benchmark enforces for
	// runtime-internal noise.
	if avg > 8 {
		t.Fatalf("warm sharded run allocates %.1f objects", avg)
	}
}
