package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"optibfs/internal/core"
	"optibfs/internal/gen"
)

// get fetches a URL from the live server and returns the body.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServeEndpoints starts a live server on an ephemeral port and
// checks every mounted route answers.
func TestServeEndpoints(t *testing.T) {
	r := New()
	r.Gauge("optibfs_up").Set(1)
	PublishExpvar("optibfs_test_serve", r)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	metrics := get(t, base+"/metrics")
	if !strings.Contains(metrics, "optibfs_up 1\n") {
		t.Fatalf("/metrics missing optibfs_up gauge:\n%s", metrics)
	}
	vars := get(t, base+"/debug/vars")
	if !strings.Contains(vars, `"optibfs_up":1`) {
		t.Fatalf("/debug/vars missing registry dump:\n%s", vars)
	}
	if idx := get(t, base+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%.200s", idx)
	}
	get(t, base+"/debug/pprof/goroutine?debug=1")
}

// TestLiveExpositionDuringRuns is the -race witness for the layer's
// core claim: scraping the endpoint while engines run and publish must
// be data-race-free. One goroutine runs a pooled engine back-to-back,
// publishing counters and timings after every run exactly the way the
// harness does; scrapers hammer /metrics and /debug/vars concurrently.
func TestLiveExpositionDuringRuns(t *testing.T) {
	g, err := gen.LayeredRandom(2000, 12000, 12, 42, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.Gauge("optibfs_up").Set(1)
	PublishExpvar("optibfs_test_live", r)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	e, err := core.NewEngine(g, core.BFSWSL, core.Options{
		Workers: 4, Seed: 1, LevelTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const runs = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		algo := L("algo", string(core.BFSWSL))
		for i := 0; i < runs; i++ {
			start := time.Now()
			res, err := e.Run(0)
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			r.Counter("optibfs_runs_total", algo).Inc()
			r.Histogram("optibfs_run_seconds", nil, algo).Observe(time.Since(start).Seconds())
			AddCounters(r, "optibfs_", &res.Counters, algo)
			r.Gauge("optibfs_last_levels", algo).Set(float64(res.Levels))
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			url := base + "/metrics"
			if s%2 == 1 {
				url = base + "/debug/vars"
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				get(t, url)
			}
		}(s)
	}
	<-done
	wg.Wait()

	body := get(t, base+"/metrics")
	want := fmt.Sprintf(`optibfs_runs_total{algo="BFS_WSL"} %d`, runs)
	if !strings.Contains(body, want) {
		t.Fatalf("final scrape missing %q:\n%s", want, body)
	}
	if !strings.Contains(body, `optibfs_edges_scanned_total{algo="BFS_WSL"}`) {
		t.Fatalf("final scrape missing bridged counters:\n%s", body)
	}
}

// TestServeHandlerAndShutdown covers the daemon-facing lifecycle: a
// custom handler mounted alongside the exposition mux, a graceful
// Shutdown that finishes an in-flight request, and the nil-safety of
// CloseGracefully.
func TestServeHandlerAndShutdown(t *testing.T) {
	r := New()
	release := make(chan struct{})
	entered := make(chan struct{})
	mux := NewServeMux(r)
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "done")
	})
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 1)
	go func() {
		resp, gerr := http.Get("http://" + srv.Addr + "/slow")
		if gerr != nil {
			got <- "error: " + gerr.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-entered

	// Shutdown must wait for the in-flight /slow request.
	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if body := <-got; body != "done" {
		t.Fatalf("in-flight request got %q, want full response", body)
	}

	// The listener is gone: new connections fail.
	if _, err := http.Get("http://" + srv.Addr + "/metrics"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}

	// Nil-safety and double-drain safety.
	CloseGracefully(nil, time.Second)
	CloseGracefully(srv, time.Second)
}
