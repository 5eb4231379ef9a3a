package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/obs"
	"optibfs/internal/serve"
)

// writeV2File writes g as a v2 binary file and returns its path.
func writeV2File(t *testing.T, g *graph.CSR) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmio.WriteBinaryV2(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadPathMappedAndValidated(t *testing.T) {
	d, ts := testDaemon(t)
	g, err := gen.Graph500RMAT(2048, 16384, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeV2File(t, g)
	m := postJSON(t, ts.URL+"/load?path="+url.QueryEscape(path), "", http.StatusOK)
	if m["mapped"] != true {
		t.Fatalf("v2 path load not mapped: %v", m)
	}
	if int64(m["vertices"].(float64)) != int64(g.NumVertices()) {
		t.Fatalf("vertices = %v, want %d", m["vertices"], g.NumVertices())
	}
	q := getJSON(t, ts.URL+"/query?src=0&validate=1", http.StatusOK)
	if q["valid"] != true {
		t.Fatalf("query over mapped graph did not validate: %v", q)
	}
	lease, err := d.registry.Acquire(defaultGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if lease.MappedGraph() == nil || !lease.MappedGraph().Mapped() {
		t.Fatal("daemon did not keep the mapping")
	}
}

func TestLoadPathErrorTaxonomy(t *testing.T) {
	_, ts := testDaemon(t)
	dir := t.TempDir()

	// Missing file: the path is the client's mistake -> 400.
	postJSON(t, ts.URL+"/load?path="+url.QueryEscape(filepath.Join(dir, "missing.bin2")), "", http.StatusBadRequest)

	// Corrupt payload -> 400 via mmio.ErrMalformed.
	g, err := gen.ErdosRenyi(300, 1500, 2, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeV2File(t, g)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 1
	bad := filepath.Join(dir, "bad.bin2")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/load?path="+url.QueryEscape(bad), "", http.StatusBadRequest)
}

// File loads must respect -max-body; they used to bypass it entirely.
func TestLoadPathTooLarge(t *testing.T) {
	d := newDaemon(serve.Config{Concurrency: 1, Options: core.Options{Workers: 2}}, obs.New(), 128)
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		d.registry.Close()
	})
	g, err := gen.ErdosRenyi(500, 2500, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeV2File(t, g)
	postJSON(t, ts.URL+"/load?path="+url.QueryEscape(path), "", http.StatusRequestEntityTooLarge)

	// Startup -load takes the same gate.
	if err := loadFile(d, path); err == nil {
		t.Fatal("loadFile accepted a file over -max-body")
	}
}

// A MatrixMarket header promising 2^30 entries with none behind it
// must be refused as malformed, by upload and by path alike, without
// sizing anything from the promise: the daemon answers afterwards.
func TestLoadMatrixMarketEntryPromise(t *testing.T) {
	_, ts := testDaemon(t)
	const body = "%%MatrixMarket matrix coordinate pattern general\n2 2 1073741824\n"
	postJSON(t, ts.URL+"/load?format=mtx", body, http.StatusBadRequest)
	path := filepath.Join(t.TempDir(), "promise.mtx")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/load?path="+url.QueryEscape(path), "", http.StatusBadRequest)
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
}

// Generator loads take the -max-body gate too: a request whose CSR,
// 8·(n+1) + 4·m bytes, exceeds it is refused with 413 before anything
// is built.
func TestLoadGeneratorTooLarge(t *testing.T) {
	d := newDaemon(serve.Config{Concurrency: 1, Options: core.Options{Workers: 2}}, obs.New(), 4096)
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		d.registry.Close()
	})
	postJSON(t, ts.URL+"/load?gen=er&n=1024&m=8192&seed=3", "", http.StatusRequestEntityTooLarge)
	postJSON(t, ts.URL+"/load?gen=er&n=64&m=256&seed=2", "", http.StatusOK) // 2,568 bytes

	// The -max-body default (1 GiB) against 2^34 edges: m passes
	// generate's range check, and building it would take 64 GiB.
	def := newDaemon(serve.Config{Concurrency: 1, Options: core.Options{Workers: 2}}, obs.New(), 1<<30)
	t.Cleanup(def.registry.Close)
	h := def.handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/load?gen=rmat&n=1024&m=17179869184", nil))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2^34-edge generator request: status %d, want 413: %s", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<24 {
		t.Fatalf("refused generator request allocated %d bytes", grew)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after refusal: %d", rec.Code)
	}
}

// Text uploads and text path loads take the -max-body gate as a CSR
// budget: a ~75-byte body whose size line (or one edge-list line) names
// 2^28 vertices would otherwise build 2 GiB of offsets. Both are
// refused with 413 before the CSR is built, and the daemon keeps
// serving.
func TestLoadTextVertexCountTooLarge(t *testing.T) {
	d := newDaemon(serve.Config{Concurrency: 1, Options: core.Options{Workers: 2}}, obs.New(), 1<<30)
	t.Cleanup(d.registry.Close)
	h := d.handler()
	for _, c := range []struct{ format, file, body string }{
		{"mtx", "huge.mtx", "%%MatrixMarket matrix coordinate pattern general\n268435456 268435456 1\n1 1\n"},
		{"edges", "huge.txt", "268435455 0\n"},
	} {
		format, body := c.format, c.body
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/load?format="+format, strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s upload naming 2^28 vertices: status %d, want 413: %s", format, rec.Code, rec.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<24 {
			t.Fatalf("refused %s upload allocated %d bytes", format, grew)
		}
		path := filepath.Join(t.TempDir(), c.file)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/load?path="+url.QueryEscape(path), nil))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s path load naming 2^28 vertices: status %d, want 413: %s", format, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after refusals: %d", rec.Code)
	}
}

// A /load swap while a query is between snapshot and completion must
// not unmap the pages the query still reads: the request pin holds the
// mapping until the handler finishes, and only then may the retire
// path drop the base reference.
func TestLoadSwapKeepsMappingAliveUnderQuery(t *testing.T) {
	d, ts := testDaemon(t)
	g, err := gen.Graph500RMAT(1024, 8192, 7, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeV2File(t, g)
	postJSON(t, ts.URL+"/load?path="+url.QueryEscape(path), "", http.StatusOK)
	firstLease, err := d.registry.Acquire(defaultGraph)
	if err != nil {
		t.Fatal(err)
	}
	firstGuard, firstMapped := firstLease.Guard(), firstLease.MappedGraph()
	firstLease.Release()
	if firstMapped == nil {
		t.Fatal("first load not mapped")
	}

	swapped := make(chan struct{})
	d.testHookAfterSnapshot = func() {
		d.testHookAfterSnapshot = nil // fire once
		// Swap in a fresh (generated, heap) graph while the query holds
		// its pin, and give the background retire a chance to run.
		postJSON(t, ts.URL+"/load?gen=er&n=512&m=2048&seed=9", "", http.StatusOK)
		deadline := time.Now().Add(2 * time.Second)
		for firstGuard.Abandoned() == 0 && !firstMapped.Unmapped() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if firstMapped.Unmapped() {
			t.Error("mapping unmapped while a query still held its pin")
		}
		close(swapped)
	}
	q := getJSON(t, ts.URL+"/query?src=0&validate=1", http.StatusOK)
	<-swapped
	if q["valid"] != true {
		t.Fatalf("query during swap did not validate: %v", q)
	}
	// With the pin released and the old guard drained, the mapping must
	// eventually be released for real — no leak on the healthy path.
	deadline := time.Now().Add(5 * time.Second)
	for !firstMapped.Unmapped() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !firstMapped.Unmapped() {
		t.Fatal("retired mapping never released after the query finished")
	}
}
