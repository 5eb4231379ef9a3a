package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/obs"
	"optibfs/internal/serve"
)

// TestGeneratorParamValidation: the bad-parameter matrix for /load's
// generators must die with 400s before reaching a generator.
func TestGeneratorParamValidation(t *testing.T) {
	_, ts := testDaemon(t)
	cases := []struct {
		name  string
		query string
		want  int
	}{
		{"negative m", "gen=rmat&n=64&m=-1", http.StatusBadRequest},
		{"huge m", "gen=rmat&n=64&m=99999999999999", http.StatusBadRequest},
		{"negative m er", "gen=er&n=64&m=-5", http.StatusBadRequest},
		{"zero n", "gen=rmat&n=0&m=8", http.StatusBadRequest},
		{"negative n", "gen=rmat&n=-4&m=8", http.StatusBadRequest},
		{"huge n", "gen=rmat&n=999999999999&m=8", http.StatusBadRequest},
		{"unparsable n", "gen=rmat&n=banana", http.StatusBadRequest},
		{"unparsable m", "gen=rmat&n=64&m=banana", http.StatusBadRequest},
		{"unparsable seed", "gen=rmat&n=64&m=128&seed=banana", http.StatusBadRequest},
		{"unknown generator", "gen=tree&n=64&m=128", http.StatusBadRequest},
		{"valid rmat", "gen=rmat&n=64&m=256&seed=2", http.StatusOK},
		{"valid er", "gen=er&n=64&m=256&seed=2", http.StatusOK},
		{"m zero ok", "gen=er&n=64&m=0", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			postJSON(t, ts.URL+"/load?"+tc.query, "", tc.want)
		})
	}
}

// TestQuerySurvivesLoadSwap forces the /load-swap race: the handler's
// guard snapshot is synchronously closed (as a drained old guard after
// a swap) before the query runs. The ErrClosed retry must re-fetch the
// fresh guard and answer 200 instead of 503.
func TestQuerySurvivesLoadSwap(t *testing.T) {
	d, ts := testDaemon(t)
	postJSON(t, ts.URL+"/load?gen=er&n=256&m=1024&seed=4", "", http.StatusOK)

	var once sync.Once
	d.testHookAfterSnapshot = func() {
		once.Do(func() {
			oldLease, err := d.registry.Acquire(defaultGraph)
			if err != nil {
				t.Error(err)
				return
			}
			oldGuard := oldLease.Guard()
			oldLease.Release()
			g2, err := gen.ErdosRenyi(256, 1024, 9, gen.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.registry.Load(context.Background(), defaultGraph,
				func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
					return g2, nil, nil
				}); err != nil {
				t.Error(err)
				return
			}
			// Synchronous close (idempotent with the async retire): the
			// guard the in-flight query leased is fully drained before
			// the query dispatches into it.
			oldGuard.Close()
		})
	}
	q := getJSON(t, ts.URL+"/query?src=0&validate=1", http.StatusOK)
	if q["valid"] != true {
		t.Fatalf("post-swap query: %v", q)
	}
}

// TestPartialAnswerOn504: a query whose deadline expires mid-run gets
// a 504 carrying the partial answer fields, on both the fused and the
// solo path.
func TestPartialAnswerOn504(t *testing.T) {
	d := newDaemon(serve.Config{
		Algo:        core.BFSWL,
		Concurrency: 1,
		Deadline:    60 * time.Millisecond,
		Grace:       5 * time.Second,
		Batch:       serve.BatchConfig{Enabled: true, Window: time.Millisecond},
		Options: core.Options{
			Workers:      2,
			StallTimeout: time.Minute, // slow progress is not a stall
			Chaos:        slowHook(20 * time.Millisecond),
		},
	}, obs.New(), 1<<20)
	ts := httptest.NewServer(d.handler())
	defer func() {
		ts.Close()
		d.registry.Close()
	}()
	postJSON(t, ts.URL+"/load?gen=er&n=2000&m=12000&seed=7", "", http.StatusOK)

	for _, mode := range []string{"", "&batch=0"} {
		q := getJSON(t, ts.URL+"/query?src=0&full=1"+mode, http.StatusGatewayTimeout)
		if q["outcome"] != "deadline" {
			t.Fatalf("mode %q: outcome = %v, want deadline (body %v)", mode, q["outcome"], q)
		}
		if q["partial"] != true {
			t.Fatalf("mode %q: partial flag missing: %v", mode, q)
		}
		if q["error"] == nil || q["dist_all"] == nil {
			t.Fatalf("mode %q: 504 must carry error and partial dist_all", mode)
		}
		if n := len(q["dist_all"].([]any)); n != 2000 {
			t.Fatalf("mode %q: dist_all has %d entries, want 2000", mode, n)
		}
	}

	// A dst query's 504 projects dst from the same partial answer: the
	// farthest vertex from the source is still unsettled at the
	// deadline, or settled at its exact distance.
	g, _, err := generate("er", map[string][]string{"n": {"2000"}, "m": {"12000"}, "seed": {"7"}})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	var dst int32
	for v, d := range want {
		if d > want[dst] {
			dst = int32(v)
		}
	}
	for _, mode := range []string{"", "&batch=0"} {
		q := getJSON(t, fmt.Sprintf("%s/query?src=0&dst=%d%s", ts.URL, dst, mode), http.StatusGatewayTimeout)
		if q["partial"] != true {
			t.Fatalf("mode %q: partial flag missing: %v", mode, q)
		}
		if q["dst"] != float64(dst) {
			t.Fatalf("mode %q: dst = %v, want %d", mode, q["dst"], dst)
		}
		if d, ok := q["dist"].(float64); !ok || (d != float64(graph.Unreached) && d != float64(want[dst])) {
			t.Fatalf("mode %q: dist = %v, want %d or %d", mode, q["dist"], graph.Unreached, want[dst])
		}
	}
}

// slowHook is a ChaosHook that sleeps at every level barrier.
type slowHook time.Duration

func (s slowHook) At(p core.ChaosPoint, _ int, _ int64) {
	if p == core.ChaosStall {
		time.Sleep(time.Duration(s))
	}
}

// parkHook parks the first worker to reach a level barrier until open
// is closed, closing entered once it is parked. Later firings pass.
type parkHook struct {
	armed   atomic.Bool
	entered chan struct{}
	open    chan struct{}
}

func (h *parkHook) At(p core.ChaosPoint, _ int, _ int64) {
	if p == core.ChaosStall && h.armed.CompareAndSwap(true, false) {
		close(h.entered)
		<-h.open
	}
}

// parkedDaemon serves the graph that the load query string builds from
// a one-engine fleet whose only engine is held busy: an opted-out solo
// query parks at its first level barrier, so default-path queries find
// no idle engine and overflow into the batcher. unpark lets the parked
// query finish and checks its answer; call it before the daemon
// closes.
func parkedDaemon(t *testing.T, load string, batch serve.BatchConfig) (d *daemon, ts *httptest.Server, unpark func()) {
	t.Helper()
	park := &parkHook{entered: make(chan struct{}), open: make(chan struct{})}
	park.armed.Store(true)
	batch.Enabled = true
	d = newDaemon(serve.Config{
		Algo:        core.BFSWL,
		Concurrency: 1,
		Deadline:    10 * time.Second,
		// The hook parks a worker on purpose: not a stall.
		Options: core.Options{Workers: 2, StallTimeout: time.Minute, Chaos: park},
		Batch:   batch,
	}, obs.New(), 1<<20)
	ts = httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		d.registry.Close()
	})
	postJSON(t, ts.URL+"/load?"+load, "", http.StatusOK)

	held := make(chan map[string]any, 1)
	go func() {
		defer close(held)
		resp, err := http.Get(ts.URL + "/query?src=3&validate=1&batch=0")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Error(err)
			return
		}
		held <- m
	}()
	<-park.entered
	return d, ts, func() {
		close(park.open)
		if m := <-held; m["valid"] != true {
			t.Fatalf("fleet-holding solo query: %v", m)
		}
	}
}

// TestBatchOptOutAndFusedMarking: concurrent default-path queries that
// find the solo fleet busy fuse (answers say so); a lone query on the
// idle fleet answers solo at once; ?batch=0 opts out entirely.
func TestBatchOptOutAndFusedMarking(t *testing.T) {
	d, ts, unpark := parkedDaemon(t, "gen=er&n=256&m=1024&seed=4",
		serve.BatchConfig{Window: 250 * time.Millisecond, MaxLanes: 2})

	// Two concurrent queries seat in one window (MaxLanes 2 dispatches
	// the moment both arrive) and come back fused.
	fused := make([]map[string]any, 2)
	var wg sync.WaitGroup
	for i := range fused {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fused[i] = getJSON(t, fmt.Sprintf("%s/query?src=%d&validate=1", ts.URL, i*7), http.StatusOK)
		}(i)
	}
	wg.Wait()
	unpark()
	for i, m := range fused {
		if m["fused"] != true {
			t.Fatalf("concurrent query %d not fused: %v", i, m)
		}
		if m["algorithm"] != string(core.MSBFSL) {
			t.Fatalf("fused algorithm = %v, want %s", m["algorithm"], core.MSBFSL)
		}
		if lanes := m["batch_lanes"].(float64); lanes != 2 {
			t.Fatalf("batch_lanes = %v, want 2", lanes)
		}
	}

	// A lone query finds the fleet idle: it must dodge the fused engine
	// and run on the solo fleet at once.
	lone := getJSON(t, ts.URL+"/query?src=0&validate=1", http.StatusOK)
	if _, ok := lone["fused"]; ok {
		t.Fatalf("idle-fleet query still fused: %v", lone)
	}
	if lone["algorithm"] != string(core.BFSWL) {
		t.Fatalf("idle-fleet algorithm = %v, want solo %s", lone["algorithm"], core.BFSWL)
	}
	if n := d.reg.Counter("optibfs_serve_fused_bypass_total").Value(); n != 1 {
		t.Fatalf("fused bypasses = %d, want 1 (the lone query)", n)
	}

	solo := getJSON(t, ts.URL+"/query?src=0&validate=1&batch=0", http.StatusOK)
	if _, ok := solo["fused"]; ok {
		t.Fatalf("?batch=0 still fused: %v", solo)
	}
	if solo["algorithm"] != string(core.BFSWL) {
		t.Fatalf("solo algorithm = %v, want %s", solo["algorithm"], core.BFSWL)
	}
}

// TestConcurrentFusedQueriesValidate is the in-process twin of the
// smoke script's batcher check: 64 concurrent validated queries that
// overflow a busy fleet, all fused, with the occupancy metrics
// populated.
func TestConcurrentFusedQueriesValidate(t *testing.T) {
	d, ts, unpark := parkedDaemon(t, "gen=rmat&n=512&m=4096&seed=3",
		serve.BatchConfig{Window: time.Millisecond})
	lease, err := d.registry.Acquire(defaultGraph)
	if err != nil {
		t.Fatal(err)
	}
	n := lease.Graph().NumVertices()
	lease.Release()

	const q = 64
	errs := make([]error, q)
	var wg sync.WaitGroup
	for i := 0; i < q; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := int32(i*17) % n
			url := fmt.Sprintf("%s/query?src=%d&validate=1", ts.URL, src)
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				errs[i] = fmt.Errorf("query %d: decoding: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK || m["valid"] != true {
				errs[i] = fmt.Errorf("query %d: status %d body %v", i, resp.StatusCode, m)
			}
		}(i)
	}
	// Unpark only once every query has seated in a batch: a singleton
	// window's solo dispatch waits for the engine, and an early unpark
	// would let late arrivals take the idle-fleet bypass.
	lanes := d.reg.Counter("optibfs_serve_fused_lanes_total")
	for deadline := time.Now().Add(10 * time.Second); lanes.Value() < q; runtime.Gosched() {
		if time.Now().After(deadline) {
			unpark()
			t.Fatalf("only %d of %d queries seated in a batch", lanes.Value(), q)
		}
	}
	unpark()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if c := d.reg.Counter("optibfs_serve_fused_lanes_total").Value(); c < q/2 {
		t.Fatalf("fused lanes = %d, want most of %d queries fused", c, q)
	}
	if h := d.reg.Histogram("optibfs_serve_batch_lanes",
		[]float64{1, 2, 4, 8, 16, 32, 48, 64}); h.Count() < 1 {
		t.Fatal("batch occupancy histogram never observed")
	}
}
