package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/mmio"
	"optibfs/internal/obs"
	"optibfs/internal/serve"
)

func testDaemon(t *testing.T) (*daemon, *httptest.Server) {
	t.Helper()
	d := newDaemon(serve.Config{
		Algo:        core.BFSWL,
		Concurrency: 1,
		Deadline:    10 * time.Second,
		Options:     core.Options{Workers: 2},
		Batch:       serve.BatchConfig{Enabled: true, Window: time.Millisecond},
	}, obs.New(), 1<<20)
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		d.registry.Close()
	})
	return d, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %v)", url, resp.StatusCode, wantStatus, m)
	}
	return m
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("POST %s: decoding body: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (body %v)", url, resp.StatusCode, wantStatus, m)
	}
	return m
}

func TestLifecycleLoadQueryValidate(t *testing.T) {
	_, ts := testDaemon(t)

	// Before a load: queries 503, readiness 503, liveness 200.
	getJSON(t, ts.URL+"/query?src=0", http.StatusServiceUnavailable)
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	getJSON(t, ts.URL+"/healthz", http.StatusOK)

	// Load a 4-vertex path as an edge list.
	m := postJSON(t, ts.URL+"/load", "0 1\n1 2\n2 3\n", http.StatusOK)
	if m["vertices"].(float64) != 4 {
		t.Fatalf("load reported %v vertices, want 4", m["vertices"])
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK)

	// Query with self-validation and a destination.
	q := getJSON(t, ts.URL+"/query?src=0&dst=3&validate=1", http.StatusOK)
	if q["valid"] != true {
		t.Fatalf("validated query: %v", q)
	}
	if q["dist"].(float64) != 3 {
		t.Fatalf("dist(0->3) = %v, want 3", q["dist"])
	}
	if q["outcome"] != "ok" {
		t.Fatalf("outcome = %v, want ok", q["outcome"])
	}

	// Full arrays.
	f := getJSON(t, ts.URL+"/query?src=0&full=1", http.StatusOK)
	if len(f["dist_all"].([]any)) != 4 {
		t.Fatalf("full dist has %d entries", len(f["dist_all"].([]any)))
	}

	// Bad inputs map to 400.
	getJSON(t, ts.URL+"/query?src=banana", http.StatusBadRequest)
	getJSON(t, ts.URL+"/query?src=99", http.StatusBadRequest)
	getJSON(t, ts.URL+"/query?src=0&dst=99", http.StatusBadRequest)
}

func TestLoadGeneratedAndBinary(t *testing.T) {
	_, ts := testDaemon(t)

	m := postJSON(t, ts.URL+"/load?gen=rmat&n=512&m=4096&seed=3", "", http.StatusOK)
	if m["vertices"].(float64) != 512 {
		t.Fatalf("rmat load: %v", m)
	}
	q := getJSON(t, ts.URL+"/query?src=0&validate=1", http.StatusOK)
	if q["valid"] != true {
		t.Fatalf("rmat query: %v", q)
	}

	// Binary upload round-trip.
	g, err := gen.ErdosRenyi(100, 600, 2, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mmio.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/load?format=bin", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary load: status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/query?src=0&validate=1", http.StatusOK)
}

func TestLoadErrorMapping(t *testing.T) {
	_, ts := testDaemon(t)

	// Malformed bytes: 400 via mmio.ErrMalformed.
	postJSON(t, ts.URL+"/load", "not an edge list\n", http.StatusBadRequest)
	postJSON(t, ts.URL+"/load?format=mtx", "%%MatrixMarket matrix coordinate", http.StatusBadRequest)
	postJSON(t, ts.URL+"/load?format=bin", "NOTMAGIC........", http.StatusBadRequest)
	// Unknown knobs: 400.
	postJSON(t, ts.URL+"/load?format=nope", "x", http.StatusBadRequest)
	postJSON(t, ts.URL+"/load?gen=nope", "", http.StatusBadRequest)
	// GET on /load: 405.
	getJSON(t, ts.URL+"/load", http.StatusMethodNotAllowed)
}

func TestLoadBodyTooLarge(t *testing.T) {
	d := newDaemon(serve.Config{Concurrency: 1, Options: core.Options{Workers: 2}}, obs.New(), 64)
	ts := httptest.NewServer(d.handler())
	defer func() {
		ts.Close()
		d.registry.Close()
	}()
	big := strings.Repeat("0 1\n", 100)
	postJSON(t, ts.URL+"/load", big, http.StatusRequestEntityTooLarge)
}

func TestMetricsExposed(t *testing.T) {
	_, ts := testDaemon(t)
	postJSON(t, ts.URL+"/load", "0 1\n", http.StatusOK)
	getJSON(t, ts.URL+"/query?src=0", http.StatusOK)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, `optibfs_serve_requests_total{outcome="ok"} 1`) {
		t.Fatalf("metrics missing serve request counter:\n%s", body)
	}
	// The lone default-path query found the fleet idle and skipped the
	// batcher.
	if !strings.Contains(body, "optibfs_serve_fused_bypass_total 1") {
		t.Fatalf("metrics missing fused bypass counter:\n%s", body)
	}
}
