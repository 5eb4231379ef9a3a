package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
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

// A daemon built with -shards answers and self-validates like the
// single-engine one; the guard routes through core.NewBackend.
func TestShardedDaemonQueries(t *testing.T) {
	d := newDaemon(serve.Config{
		Algo:        core.BFSWL,
		Concurrency: 1,
		Deadline:    10 * time.Second,
		Options:     core.Options{Workers: 2, Shards: 2},
	}, obs.New(), 1<<20)
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		d.registry.Close()
	})
	postJSON(t, ts.URL+"/load?gen=rmat&n=2048&m=16384&seed=3", "", http.StatusOK)
	for i := 0; i < 3; i++ {
		q := getJSON(t, fmt.Sprintf("%s/query?src=%d&validate=1&batch=0", ts.URL, i*17), http.StatusOK)
		if q["valid"] != true {
			t.Fatalf("sharded daemon query invalid: %v", q)
		}
	}
}
