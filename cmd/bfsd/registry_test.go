package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/obs"
	"optibfs/internal/serve"
)

func decodeJSON(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	return m
}

func deleteJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, resp)
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s: status %d, want %d (body %v)", url, resp.StatusCode, wantStatus, m)
	}
	return m
}

// TestGraphsCRUD drives the named-graph routes end to end: load three
// graphs, list them, query each by name, evict one, and observe the
// 404s that follow.
func TestGraphsCRUD(t *testing.T) {
	_, ts := testDaemon(t)
	for i, name := range []string{"alpha", "beta", "gamma"} {
		m := postJSON(t, fmt.Sprintf("%s/graphs/%s?gen=er&n=256&m=1024&seed=%d", ts.URL, name, i+1), "", http.StatusOK)
		if m["graph"] != name {
			t.Fatalf("load response graph = %v, want %s", m["graph"], name)
		}
	}

	list := getJSON(t, ts.URL+"/graphs", http.StatusOK)
	graphs := list["graphs"].([]any)
	if len(graphs) != 3 {
		t.Fatalf("listed %d graphs, want 3: %v", len(graphs), list)
	}
	if rb := list["resident_bytes"].(float64); rb <= 0 {
		t.Fatalf("resident_bytes = %v, want > 0", rb)
	}

	info := getJSON(t, ts.URL+"/graphs/beta", http.StatusOK)
	if info["graph"] != "beta" || info["vertices"].(float64) != 256 {
		t.Fatalf("graph info: %v", info)
	}

	for _, name := range []string{"alpha", "beta", "gamma"} {
		q := getJSON(t, ts.URL+"/query?src=0&graph="+name+"&validate=1", http.StatusOK)
		if q["valid"] != true || q["graph"] != name {
			t.Fatalf("query on %s: %v", name, q)
		}
		if q["graph_gen"] == nil {
			t.Fatalf("named query must report graph_gen: %v", q)
		}
	}

	deleteJSON(t, ts.URL+"/graphs/beta", http.StatusOK)
	getJSON(t, ts.URL+"/graphs/beta", http.StatusNotFound)
	getJSON(t, ts.URL+"/query?src=0&graph=beta", http.StatusNotFound)
	deleteJSON(t, ts.URL+"/graphs/beta", http.StatusNotFound)

	// The survivors still answer.
	q := getJSON(t, ts.URL+"/query?src=0&graph=alpha&validate=1", http.StatusOK)
	if q["valid"] != true {
		t.Fatalf("post-evict query on alpha: %v", q)
	}
}

// TestQueryRouting404AndLegacy503: the legacy default route keeps its
// historical 503 "no graph loaded" while explicit graph= misses get a
// 404, and malformed names die with a 400.
func TestQueryRouting404AndLegacy503(t *testing.T) {
	_, ts := testDaemon(t)
	getJSON(t, ts.URL+"/query?src=0", http.StatusServiceUnavailable)
	getJSON(t, ts.URL+"/query?src=0&graph=nope", http.StatusNotFound)
	getJSON(t, ts.URL+"/query?src=0&graph=bad/name", http.StatusBadRequest)
	postJSON(t, ts.URL+"/graphs/bad%2Fname?gen=er&n=64&m=128", "", http.StatusBadRequest)
}

// TestReadyzPerGraph: ?graph= probes one graph's state; the bare probe
// reports the whole registry (and keeps the legacy default-graph
// fields the load generators read).
func TestReadyzPerGraph(t *testing.T) {
	_, ts := testDaemon(t)
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	getJSON(t, ts.URL+"/readyz?graph=solo", http.StatusNotFound)

	postJSON(t, ts.URL+"/graphs/solo?gen=er&n=128&m=512&seed=1", "", http.StatusOK)
	m := getJSON(t, ts.URL+"/readyz?graph=solo", http.StatusOK)
	if m["ready"] != true || m["graph"] != "solo" {
		t.Fatalf("per-graph readyz: %v", m)
	}
	// A named graph (no default) is enough for overall readiness.
	m = getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if m["ready"] != true {
		t.Fatalf("registry with one named graph not ready: %v", m)
	}
	if m["vertices"] != nil {
		t.Fatalf("legacy default fields must be absent without a default graph: %v", m)
	}

	postJSON(t, ts.URL+"/load?gen=er&n=256&m=1024&seed=2", "", http.StatusOK)
	m = getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if m["vertices"].(float64) != 256 || m["algorithm"] == nil {
		t.Fatalf("legacy default fields missing: %v", m)
	}
}

// gateHook blocks every worker at its first level barrier until the
// channel closes — a deterministic way to hold one query in flight.
type gateHook struct{ release chan struct{} }

func (h gateHook) At(p core.ChaosPoint, _ int, _ int64) {
	if p == core.ChaosStall {
		<-h.release
	}
}

// TestBurstSheds429WithRetryAfter: with a single global admission slot
// and no queue, a second concurrent query is shed with 429 and a
// derived Retry-After — not the old hardcoded 503/1s pair.
func TestBurstSheds429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	d := newDaemonFull(serve.Config{
		Algo:        core.BFSWL,
		Concurrency: 2,
		Deadline:    10 * time.Second,
		Options: core.Options{
			Workers:      2,
			StallTimeout: time.Minute, // the gate is not a stall
			Chaos:        gateHook{release: release},
		},
	}, serve.AdmissionConfig{
		MaxInFlight: 1,
		MaxQueue:    -1, // shed immediately when saturated
	}, 0, obs.New(), 1<<20)
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		d.registry.Close()
	})
	postJSON(t, ts.URL+"/load?gen=er&n=256&m=1024&seed=4", "", http.StatusOK)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getJSON(t, ts.URL+"/query?src=0&batch=0", http.StatusOK)
	}()
	// Wait until the first query holds the admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for d.reg.Gauge("optibfs_admission_inflight").Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.reg.Gauge("optibfs_admission_inflight").Value() < 1 {
		close(release)
		t.Fatal("first query never occupied the admission slot")
	}

	resp, err := http.Get(ts.URL + "/query?src=1&batch=0")
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	body := decodeJSON(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		close(release)
		t.Fatalf("burst query status = %d, want 429 (body %v)", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		close(release)
		t.Fatal("429 without Retry-After")
	}
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 || secs > 30 {
		close(release)
		t.Fatalf("Retry-After = %q, want integer seconds in [1,30]", ra)
	}
	if body["shed"] != serve.ShedQueueFull {
		close(release)
		t.Fatalf("shed reason = %v, want %s (body %v)", body["shed"], serve.ShedQueueFull, body)
	}
	if d.reg.Counter(`optibfs_admission_sheds_total{reason="queue_full"}`).Value() < 1 {
		close(release)
		t.Fatal("shed counter not incremented")
	}

	close(release)
	wg.Wait()
}

// TestMemBudgetEvictsLRUOverHTTP: loads past -mem-budget evict the
// least-recently-used idle graph, observable as a 404 on its routes.
func TestMemBudgetEvictsLRUOverHTTP(t *testing.T) {
	g, err := gen.ErdosRenyi(500, 3000, 9, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cost := int64(len(g.Offsets))*8 + int64(len(g.Edges))*4
	d := newDaemonFull(serve.Config{
		Algo:        core.BFSWL,
		Concurrency: 1,
		Deadline:    10 * time.Second,
		Options:     core.Options{Workers: 2},
	}, serve.AdmissionConfig{}, cost*2+cost/2, obs.New(), 1<<20)
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		d.registry.Close()
	})

	// Identical generator params -> identical cost per graph; the
	// budget fits two of the three.
	postJSON(t, ts.URL+"/graphs/a?gen=er&n=500&m=3000&seed=9", "", http.StatusOK)
	postJSON(t, ts.URL+"/graphs/b?gen=er&n=500&m=3000&seed=9", "", http.StatusOK)
	// Touch a so b is the LRU victim.
	getJSON(t, ts.URL+"/query?src=0&graph=a", http.StatusOK)
	postJSON(t, ts.URL+"/graphs/c?gen=er&n=500&m=3000&seed=9", "", http.StatusOK)

	getJSON(t, ts.URL+"/graphs/b", http.StatusNotFound)
	getJSON(t, ts.URL+"/query?src=0&graph=a", http.StatusOK)
	getJSON(t, ts.URL+"/query?src=0&graph=c", http.StatusOK)
}
