// Command bfsd is a long-running BFS query daemon over the hardened
// serving layer (internal/serve): load graphs into a named registry,
// then answer distance/parent queries over HTTP with panic isolation,
// stall detection, deadline budgets, global admission control with
// deadline-aware shedding, memory-budget LRU eviction, and
// serial-oracle degradation. The JSON API:
//
//	POST /load?gen=rmat&n=4096&m=32768&seed=1   load the default graph (generate)
//	POST /load?format=edges|mtx|bin             load the default graph from the body
//	POST /load?path=/data/graph.bin2            load (mmap when possible) a server-side file
//	POST /graphs/{name}?...                     same ingest routes, into a named graph
//	GET  /graphs                                list resident graphs
//	GET  /graphs/{name}                         one graph's state
//	DELETE /graphs/{name}                       evict (draining queries finish first)
//	GET  /query?src=0[&graph=name][&dst=7][&k=3][&path=1][&full=1][&validate=1][&batch=0]
//	GET  /query?kind=components                 weakly-connected components (cached per load)
//	GET  /query?kind=ecc&src=0                  eccentricity of src's reachable set
//	GET  /healthz                               liveness (always 200)
//	GET  /readyz[?graph=name]                   readiness (503 until loaded; reports graphs)
//	GET  /metrics                               Prometheus text exposition
//
// Overload semantics: queries shed by the admission controller (global
// concurrency, per-graph fair share, deadline-budget, queue caps)
// return 429 with a Retry-After derived from the controller's
// estimated wait; 503 is reserved for closed/draining/loading states
// so clients can tell backpressure from outage. Loads that cannot fit
// the memory budget even after LRU eviction return 507.
//
// dst= and k= are goal-directed: the engine terminates at the level
// barrier where dst's distance commits (or after k closed levels), so
// an s–t query costs the levels up to dst, not a whole-graph
// traversal. Truncated answers report truncated=true and are exact for
// every closed level; dst cannot be combined with full=1 because the
// distance array is deliberately partial.
//
// plus /debug/vars and /debug/pprof from the shared exposition mux.
// SIGTERM/SIGINT triggers a graceful drain: the listener closes,
// in-flight requests finish (bounded by -drain-timeout), the registry
// closes its fleets in eviction (LRU) order, and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"optibfs/internal/analysis"
	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/obs"
	"optibfs/internal/serve"
)

// defaultGraph is the name the legacy single-graph routes (/load,
// /query without graph=) operate on.
const defaultGraph = "default"

// daemon holds the HTTP state: a serve.Registry doing all the
// lifecycle work, plus cosmetic per-name descriptors.
type daemon struct {
	cfg      serve.Config
	reg      *obs.Registry
	registry *serve.Registry
	maxBody  int64

	descs sync.Map // name -> desc string (cosmetic; authoritative state is the registry's)

	// testHookAfterSnapshot fires in handleQuery between leasing the
	// graph and querying it — the window a concurrent /load swap races
	// into. Nil outside tests.
	testHookAfterSnapshot func()
}

// newDaemon builds a daemon with default admission control and no
// memory budget (the common test configuration).
func newDaemon(cfg serve.Config, reg *obs.Registry, maxBody int64) *daemon {
	return newDaemonFull(cfg, serve.AdmissionConfig{}, 0, reg, maxBody)
}

// newDaemonFull is newDaemon with explicit admission tuning and a
// memory budget (bytes; 0 = unlimited).
func newDaemonFull(cfg serve.Config, adm serve.AdmissionConfig, memBudget int64, reg *obs.Registry, maxBody int64) *daemon {
	cfg.Registry = reg
	d := &daemon{cfg: cfg, reg: reg, maxBody: maxBody}
	d.registry = serve.NewRegistry(serve.RegistryConfig{
		MemoryBudget: memBudget,
		Guard:        cfg,
		Admission:    adm,
		Obs:          reg,
	})
	return d
}

// handler mounts the API on the shared exposition mux, so /metrics,
// /debug/vars, and /debug/pprof ride along for free.
func (d *daemon) handler() http.Handler {
	mux := obs.NewServeMux(d.reg)
	mux.HandleFunc("/load", func(w http.ResponseWriter, r *http.Request) {
		d.handleLoad(w, r, defaultGraph)
	})
	mux.HandleFunc("/graphs", d.handleGraphsList)
	mux.HandleFunc("/graphs/", d.handleGraphsItem)
	mux.HandleFunc("/query", d.handleQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("/readyz", d.handleReady)
	return mux
}

// graphName validates a client-supplied graph name: short, path-safe,
// metric-label-safe.
func graphName(name string) (string, error) {
	if name == "" || len(name) > 64 {
		return "", fmt.Errorf("graph name must be 1-64 characters")
	}
	for _, c := range name {
		if !(c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
			return "", fmt.Errorf("graph name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return name, nil
}

// retryAfterSeconds derives the Retry-After header from an estimated
// wait: rounded up to whole seconds, clamped to [1, 30].
func retryAfterSeconds(est time.Duration) string {
	s := int64(math.Ceil(est.Seconds()))
	if s < 1 {
		s = 1
	}
	if s > 30 {
		s = 30
	}
	return strconv.FormatInt(s, 10)
}

func (d *daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("graph"); name != "" {
		info, ok := d.registry.Info(name)
		switch {
		case !ok:
			writeJSON(w, http.StatusNotFound, map[string]any{"ready": false, "error": fmt.Sprintf("graph %q not found", name)})
		case info.Loading:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "loading": true, "graph": name})
		default:
			writeJSON(w, http.StatusOK, d.graphFields(info, map[string]any{"ready": true}))
		}
		return
	}
	list := d.registry.List()
	resident := make([]map[string]any, 0, len(list))
	for _, info := range list {
		resident = append(resident, d.graphFields(info, map[string]any{}))
	}
	resp := map[string]any{"graphs": resident, "resident_bytes": d.registry.ResidentBytes()}
	if lease, err := d.registry.Acquire(defaultGraph); err == nil {
		// Legacy single-graph fields: load generators size their
		// source/target draws off these, so the ready probe doubles as
		// the default graph's descriptor.
		resp["ready"] = true
		resp["vertices"] = lease.Graph().NumVertices()
		resp["edges"] = lease.Graph().NumEdges()
		resp["desc"] = d.descOf(defaultGraph)
		resp["algorithm"] = string(lease.Guard().Algorithm())
		lease.Release()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if len(list) > 0 {
		resp["ready"] = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp["ready"] = false
	resp["error"] = "no graph loaded"
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

// graphFields renders one GraphInfo (plus the daemon's descriptor)
// into resp.
func (d *daemon) graphFields(info serve.GraphInfo, resp map[string]any) map[string]any {
	resp["graph"] = info.Name
	resp["gen"] = info.Gen
	resp["vertices"] = info.Vertices
	resp["edges"] = info.Edges
	resp["cost_bytes"] = info.Cost
	resp["mapped"] = info.Mapped
	if info.Loading {
		resp["loading"] = true
	}
	if desc := d.descOf(info.Name); desc != "" {
		resp["desc"] = desc
	}
	return resp
}

func (d *daemon) descOf(name string) string {
	if v, ok := d.descs.Load(name); ok {
		return v.(string)
	}
	return ""
}

// handleGraphsList serves GET /graphs.
func (d *daemon) handleGraphsList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "GET required"})
		return
	}
	list := d.registry.List()
	out := make([]map[string]any, 0, len(list))
	for _, info := range list {
		out = append(out, d.graphFields(info, map[string]any{}))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs":         out,
		"resident_bytes": d.registry.ResidentBytes(),
	})
}

// handleGraphsItem serves POST/GET/DELETE /graphs/{name}.
func (d *daemon) handleGraphsItem(w http.ResponseWriter, r *http.Request) {
	name, err := graphName(strings.TrimPrefix(r.URL.Path, "/graphs/"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	switch r.Method {
	case http.MethodPost:
		d.handleLoad(w, r, name)
	case http.MethodGet:
		info, ok := d.registry.Info(name)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("graph %q not found", name)})
			return
		}
		writeJSON(w, http.StatusOK, d.graphFields(info, map[string]any{}))
	case http.MethodDelete:
		switch err := d.registry.Evict(name); {
		case err == nil:
			d.descs.Delete(name)
			writeJSON(w, http.StatusOK, map[string]any{"evicted": name})
		case errors.Is(err, serve.ErrNotFound):
			writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("graph %q not found", name)})
		case errors.Is(err, serve.ErrClosed):
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "draining"})
		default:
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		}
	default:
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "POST, GET, or DELETE required"})
	}
}

// handleLoad ingests a graph (server-side file, generator, or request
// body) into the named registry slot. The parse runs inside the
// registry's single-flight loader, so concurrent loads of one name
// collapse; the parse error (if any) comes back out of Load and maps
// to the same statuses as before.
func (d *daemon) handleLoad(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "POST required"})
		return
	}
	var (
		desc   string
		source serve.GraphSource
	)
	if path := r.URL.Query().Get("path"); path != "" {
		desc = path
		maxBody := d.maxBody
		source = func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
			g, mapped, _, err := openGraphFile(path, maxBody)
			return g, mapped, err
		}
	} else if kind := r.URL.Query().Get("gen"); kind != "" {
		g, gdesc, err := generate(kind, r.URL.Query(), d.maxBody)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errFileTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, map[string]any{"error": err.Error()})
			return
		}
		desc = gdesc
		source = func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
			return g, nil, nil
		}
	} else {
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "edges"
		}
		desc = format + " upload"
		// The body must be consumed on this request, single-flight or
		// not: parse it eagerly, then hand the result to the loader.
		body := http.MaxBytesReader(w, r.Body, d.maxBody)
		var g *graph.CSR
		var err error
		switch format {
		case "edges":
			g, err = mmio.ReadEdgeListBudget(body, d.maxBody)
		case "mtx":
			g, err = mmio.ReadMatrixMarketBudget(body, d.maxBody)
		case "bin":
			g, err = mmio.ReadBinary(body)
		default:
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("unknown format %q", format)})
			return
		}
		if err != nil {
			status := http.StatusInternalServerError
			var mbe *http.MaxBytesError
			switch {
			case errors.As(err, &mbe), errors.Is(err, mmio.ErrTooLarge):
				status = http.StatusRequestEntityTooLarge
			case errors.Is(err, mmio.ErrMalformed):
				// The bytes are the client's fault; a broken stream
				// (mmio.ErrIO) stays a 500.
				status = http.StatusBadRequest
			}
			writeJSON(w, status, map[string]any{"error": err.Error()})
			return
		}
		source = func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
			return g, nil, nil
		}
	}

	if err := d.registry.Load(r.Context(), name, source); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errFileTooLarge), errors.Is(err, mmio.ErrTooLarge):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, mmio.ErrMalformed):
			status = http.StatusBadRequest
		case errors.Is(err, serve.ErrBudgetExceeded):
			status = http.StatusInsufficientStorage
		case errors.Is(err, serve.ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	d.descs.Store(name, desc)

	// Report the installed generation (it may already have been swapped
	// or evicted by a concurrent writer; then report what Load did).
	resp := map[string]any{"graph": name, "desc": desc}
	if lease, err := d.registry.Acquire(name); err == nil {
		resp["vertices"] = lease.Graph().NumVertices()
		resp["edges"] = lease.Graph().NumEdges()
		resp["gen"] = lease.Gen()
		resp["algorithm"] = string(lease.Guard().Algorithm())
		resp["mapped"] = lease.MappedGraph() != nil && lease.MappedGraph().Mapped()
		lease.Release()
	}
	writeJSON(w, http.StatusOK, resp)
}

// generate builds a graph from generator query parameters. A graph
// whose CSR, 8·(n+1) + 4·m bytes, exceeds maxBody (when positive) is
// refused before anything is built, the same gate a file load takes.
func generate(kind string, q map[string][]string, maxBody int64) (*graph.CSR, string, error) {
	get := func(name string, def int64) (int64, error) {
		vs := q[name]
		if len(vs) == 0 || vs[0] == "" {
			return def, nil
		}
		return strconv.ParseInt(vs[0], 10, 64)
	}
	n, err := get("n", 4096)
	if err != nil {
		return nil, "", fmt.Errorf("bad n: %v", err)
	}
	m, err := get("m", 8*n)
	if err != nil {
		return nil, "", fmt.Errorf("bad m: %v", err)
	}
	seed, err := get("seed", 1)
	if err != nil {
		return nil, "", fmt.Errorf("bad seed: %v", err)
	}
	if n <= 0 || n > mmio.MaxVertices {
		return nil, "", fmt.Errorf("n=%d out of range", n)
	}
	if m < 0 || m > 64*mmio.MaxVertices {
		// Same edge ceiling the binary reader enforces: a negative or
		// absurd m must die here, not inside a generator.
		return nil, "", fmt.Errorf("m=%d out of range [0, %d]", m, 64*mmio.MaxVertices)
	}
	if csr := 8*(n+1) + 4*m; maxBody > 0 && csr > maxBody {
		return nil, "", fmt.Errorf("%w: generated CSR of %d bytes > limit %d", errFileTooLarge, csr, maxBody)
	}
	var g *graph.CSR
	switch kind {
	case "rmat":
		g, err = gen.Graph500RMAT(int32(n), m, uint64(seed), gen.Options{})
	case "er":
		g, err = gen.ErdosRenyi(int32(n), m, uint64(seed), gen.Options{})
	default:
		return nil, "", fmt.Errorf("unknown generator %q (want rmat or er)", kind)
	}
	if err != nil {
		return nil, "", err
	}
	return g, fmt.Sprintf("%s(n=%d,m=%d,seed=%d)", kind, n, m, seed), nil
}

// beginQuery routes one query through admission + lease, writing the
// error response itself when the query cannot run. explicit reports
// whether the client named the graph (graph=); the legacy default
// route keeps its historical 503 "no graph loaded" while named routes
// get a proper 404.
func (d *daemon) beginQuery(w http.ResponseWriter, r *http.Request, name string, explicit bool) *serve.Lease {
	lease, err := d.registry.Begin(r.Context(), name)
	if err == nil {
		return lease
	}
	var shed *serve.ShedError
	switch {
	case errors.As(err, &shed):
		// Backpressure, not outage: 429 with the admission controller's
		// own wait estimate.
		w.Header().Set("Retry-After", retryAfterSeconds(shed.EstimatedWait))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":                  err.Error(),
			"shed":                   shed.Reason,
			"estimated_wait_seconds": shed.EstimatedWait.Seconds(),
		})
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", retryAfterSeconds(d.registry.EstimatedWait()))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": err.Error()})
	case errors.Is(err, serve.ErrLoading):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": fmt.Sprintf("graph %q still loading", name)})
	case errors.Is(err, serve.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "draining"})
	case errors.Is(err, serve.ErrNotFound):
		if explicit {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("graph %q not found", name)})
		} else {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no graph loaded"})
		}
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, map[string]any{"error": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	}
	return nil
}

func (d *daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("graph")
	explicit := name != ""
	if !explicit {
		name = defaultGraph
	} else if _, err := graphName(name); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	lease := d.beginQuery(w, r, name, explicit)
	if lease == nil {
		return
	}
	// The lease pins the graph generation for the whole request: the
	// projection and validation reads below touch the CSR after the
	// guard query returns, past the point a concurrent swap/evict may
	// have retired (and otherwise unmapped) the graph.
	defer func() { lease.Release() }()
	if d.testHookAfterSnapshot != nil {
		d.testHookAfterSnapshot()
	}
	switch kind := r.URL.Query().Get("kind"); kind {
	case "", "bfs":
	case "components":
		d.handleComponents(w, lease)
		return
	case "ecc":
		d.handleEcc(w, r, lease)
		return
	default:
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("unknown kind %q (want bfs, components, or ecc)", kind)})
		return
	}
	src64, err := strconv.ParseInt(r.URL.Query().Get("src"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad src: %v", err)})
		return
	}
	src := int32(src64)
	goal, dst, err := parseGoal(r, lease.Graph().NumVertices())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if dst >= 0 && r.URL.Query().Get("full") == "1" {
		// A dst query truncates at dst's level; its distance array is
		// deliberately partial, so handing it out as "full" would lie.
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "dst and full=1 are mutually exclusive: a goal-truncated run settles only the levels up to dst"})
		return
	}
	// Batched admission is the default: an idle engine answers at once
	// and only fleet overflow fuses. ?batch=0 opts a query out to solo
	// dispatch.
	batched := r.URL.Query().Get("batch") != "0"
	ans, err := queryLease(r.Context(), lease, src, goal, batched)
	if errors.Is(err, serve.ErrClosed) {
		// The lease lost a race with a concurrent swap/evict: the old
		// guard drained under us while a fresh generation may be
		// serving. Re-lease (releasing the old pin) and retry once
		// before admitting defeat.
		if next, nerr := d.registry.Begin(r.Context(), name); nerr == nil {
			lease.Release()
			lease = next
			ans, err = queryLease(r.Context(), lease, src, goal, batched)
		}
	}
	if err != nil {
		if ans != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			// The budget expired but the engine surfaced the partial
			// frontier it had settled: serve it as a 504 with the usual
			// answer fields so the caller can keep the work done so far.
			resp := answerFields(src, ans)
			resp["error"] = err.Error()
			resp["partial"] = true
			addProjection(resp, r, src, dst, ans)
			writeJSON(w, http.StatusGatewayTimeout, resp)
			return
		}
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, serve.ErrBadSource), errors.Is(err, serve.ErrBadGoal):
			status = http.StatusBadRequest
		case errors.Is(err, serve.ErrOverloaded):
			// Guard-level shed: the fleet stayed busy past its queue
			// wait. Same backpressure semantics as an admission shed.
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", retryAfterSeconds(d.registry.EstimatedWait()))
		case errors.Is(err, serve.ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		}
		writeJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	resp := answerFields(src, ans)
	if explicit {
		resp["graph"] = name
		resp["graph_gen"] = lease.Gen()
	}
	addProjection(resp, r, src, dst, ans)
	if r.URL.Query().Get("validate") == "1" {
		if verr := validateAnswer(lease.Graph(), src, goal, ans); verr != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": verr.Error(), "valid": false})
			return
		}
		resp["valid"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseGoal extracts the goal-directed params: dst (target vertex) and
// k (depth bound, closed levels). Returns dst=-1 when absent. Every
// violation is the client's fault — the caller maps errors to 400.
func parseGoal(r *http.Request, n int32) (goal core.Goal, dst int32, err error) {
	dst = -1
	if dstS := r.URL.Query().Get("dst"); dstS != "" {
		dst64, derr := strconv.ParseInt(dstS, 10, 32)
		if derr != nil || dst64 < 0 || int32(dst64) >= n {
			return goal, -1, fmt.Errorf("bad dst %q: want a vertex in [0,%d)", dstS, n)
		}
		dst = int32(dst64)
		goal = core.GoalTo(dst)
	}
	if kS := r.URL.Query().Get("k"); kS != "" {
		k64, kerr := strconv.ParseInt(kS, 10, 32)
		if kerr != nil || k64 < 1 {
			return goal, -1, fmt.Errorf("bad k %q: want a positive depth bound", kS)
		}
		goal.MaxDepth = int32(k64)
	}
	return goal, dst, nil
}

// walkPath reconstructs the src→dst shortest path from the BFS tree.
func walkPath(src, dst int32, ans *serve.Answer) []int32 {
	path := make([]int32, 0, ans.Dist[dst]+1)
	for v := dst; ; v = ans.Parent[v] {
		path = append(path, v)
		if v == src {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// compCache is the per-generation components cache, living in the
// lease's Ext map so a swap naturally invalidates it.
type compCache struct {
	once  sync.Once
	sizes []int64
	err   error
}

// handleComponents serves kind=components from the per-generation cache.
func (d *daemon) handleComponents(w http.ResponseWriter, lease *serve.Lease) {
	ci, _ := lease.Ext().LoadOrStore("components", &compCache{})
	c := ci.(*compCache)
	c.once.Do(func() {
		_, sizes, err := analysis.Components(lease.Graph(), core.Options{Workers: d.cfg.Options.Workers})
		c.sizes, c.err = sizes, err
	})
	if c.err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": c.err.Error()})
		return
	}
	var largest int64
	for _, s := range c.sizes {
		if s > largest {
			largest = s
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"kind":       "components",
		"components": len(c.sizes),
		"largest":    largest,
	})
}

// handleEcc serves kind=ecc: one full BFS from src, reduced to the
// eccentricity of its reachable set.
func (d *daemon) handleEcc(w http.ResponseWriter, r *http.Request, lease *serve.Lease) {
	g := lease.Graph()
	src64, err := strconv.ParseInt(r.URL.Query().Get("src"), 10, 32)
	if err != nil || src64 < 0 || int32(src64) >= g.NumVertices() {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad src %q", r.URL.Query().Get("src"))})
		return
	}
	eccs, err := analysis.Eccentricities(g, []int32{int32(src64)}, core.Options{Workers: d.cfg.Options.Workers})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"kind": "ecc",
		"src":  src64,
		"ecc":  eccs[0],
	})
}

// queryLease dispatches one query solo or through the fused batcher.
func queryLease(ctx context.Context, lease *serve.Lease, src int32, goal core.Goal, batched bool) (*serve.Answer, error) {
	if batched {
		return lease.Guard().QueryFusedGoal(ctx, src, goal)
	}
	return lease.Guard().QueryGoal(ctx, src, goal)
}

// answerFields builds the response fields every answer — complete or
// partial — carries.
func answerFields(src int32, ans *serve.Answer) map[string]any {
	resp := map[string]any{
		"src":             src,
		"outcome":         ans.Outcome,
		"algorithm":       string(ans.Algorithm),
		"levels":          ans.Levels,
		"reached":         ans.Reached,
		"edges_traversed": ans.EdgesTraversed,
	}
	if ans.Fused {
		resp["fused"] = true
		resp["batch_lanes"] = ans.BatchLanes
	}
	if ans.Truncated {
		resp["truncated"] = true
	}
	return resp
}

// addProjection attaches the dst and full=1 projections to a complete
// or a partial (504) answer: dst's distance, parent and, with path=1,
// its path from src when settled; or the whole arrays. dst is the
// vertex parseGoal validated, -1 when the query named none.
func addProjection(resp map[string]any, r *http.Request, src, dst int32, ans *serve.Answer) {
	if dst >= 0 {
		resp["dst"] = dst
		resp["dist"] = ans.Dist[dst]
		if ans.Parent != nil {
			resp["parent"] = ans.Parent[dst]
			if r.URL.Query().Get("path") == "1" && ans.Dist[dst] != graph.Unreached {
				resp["path"] = walkPath(src, dst, ans)
			}
		}
	}
	if r.URL.Query().Get("full") == "1" {
		resp["dist_all"] = ans.Dist
		if ans.Parent != nil {
			resp["parent_all"] = ans.Parent
		}
	}
}

// validateAnswer checks the answer against the answer tier of the
// audit contract (core.AuditAnswer): oracle distances, the goal's stop
// point and Truncated flag, reach counts and the parent tree — the
// daemon's self-check for CI smoke.
func validateAnswer(g *graph.CSR, src int32, goal core.Goal, ans *serve.Answer) error {
	return core.AuditError(core.AuditAnswer(g, src, nil, goal, ans.AsResult()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errFileTooLarge refuses a graph file, or a generated graph's CSR,
// larger than -max-body: the limit is the operator's memory budget,
// so it applies to every ingest route.
var errFileTooLarge = errors.New("bfsd: graph exceeds -max-body")

// openGraphFile loads a server-side graph file by extension, applying
// the -max-body budget to the file size up front. Binary files go
// through mmio.LoadMapped: v2 files map zero-copy (the returned
// MappedGraph owns the mapping), v1 files fall back to a heap read.
// Text formats stream from the opened file, with -max-body also as the
// budget of the CSR they build (mmio.ErrTooLarge). Errors keep the mmio
// taxonomy: ErrMalformed is the file's fault, everything else is I/O.
func openGraphFile(path string, maxBody int64) (*graph.CSR, *mmio.MappedGraph, string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%w: %v", mmio.ErrMalformed, err)
	}
	if maxBody > 0 && fi.Size() > maxBody {
		return nil, nil, "", fmt.Errorf("%w: %d bytes > limit %d", errFileTooLarge, fi.Size(), maxBody)
	}
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".bin2") {
		mg, err := mmio.LoadMapped(path, mmio.MapOptions{})
		if err != nil {
			return nil, nil, "", err
		}
		return mg.Graph(), mg, path, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%w: %v", mmio.ErrMalformed, err)
	}
	defer f.Close()
	var g *graph.CSR
	if strings.HasSuffix(path, ".mtx") {
		g, err = mmio.ReadMatrixMarketBudget(f, maxBody)
	} else {
		g, err = mmio.ReadEdgeListBudget(f, maxBody)
	}
	if err != nil {
		return nil, nil, "", err
	}
	return g, nil, path, nil
}

// loadFile serves -load at startup: a graph file by extension, under
// the same size budget and mmap path as POST /load?path=, installed as
// the default graph.
func loadFile(d *daemon, path string) error {
	maxBody := d.maxBody
	err := d.registry.Load(context.Background(), defaultGraph,
		func(context.Context) (*graph.CSR, *mmio.MappedGraph, error) {
			g, mapped, _, err := openGraphFile(path, maxBody)
			return g, mapped, err
		})
	if err != nil {
		return err
	}
	d.descs.Store(defaultGraph, path)
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address")
		algo         = flag.String("algo", string(core.BFSWL), "BFS variant to serve")
		workers      = flag.Int("workers", 0, "workers per engine (0 = GOMAXPROCS)")
		hybrid       = flag.Bool("hybrid", false, "direction-optimizing engines: bottom-up levels on large frontiers (solo engines: ?batch=0 and every query an idle fleet answers; fused MS-BFS batches ignore it)")
		concurrency  = flag.Int("concurrency", 2, "engine fleet size per graph (max queries in flight per graph)")
		deadline     = flag.Duration("deadline", 5*time.Second, "default per-query deadline")
		stallTimeout = flag.Duration("stall-timeout", time.Second, "watchdog window for wedged workers")
		grace        = flag.Duration("grace", time.Second, "post-deadline grace before an engine is abandoned")
		queueWait    = flag.Duration("queue-wait", 100*time.Millisecond, "max wait for a free engine before shedding")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget on SIGTERM")
		load         = flag.String("load", "", "graph file to serve at startup as the default graph (.mtx, .bin, else edge list)")
		maxBody      = flag.Int64("max-body", 1<<30, "maximum /load request body bytes")
		batch        = flag.Bool("batch", true, "fuse queries that find every engine busy into multi-source batched runs; a free engine answers at once (per-query opt-out: ?batch=0)")
		batchWindow  = flag.Duration("batch-window", time.Millisecond, "how long a batch collects overflow lanes before dispatch (queries on an idle fleet never wait for it)")
		batchLanes   = flag.Int("batch-lanes", 64, "max fused lanes per batch (<= 64)")
		memBudget    = flag.Int64("mem-budget", 0, "registry memory budget in bytes: inserts past it evict idle graphs LRU-first (0 = unlimited)")
		admInflight  = flag.Int("admit-inflight", 0, "global concurrent-query cap across all graphs (0 = max(8, 2×GOMAXPROCS))")
		admQueue     = flag.Int("admit-queue", 0, "admission queue depth (0 = 256, negative = shed immediately when saturated)")
		admQueueWait = flag.Duration("admit-queue-wait", time.Second, "max admission-queue wait before shedding")
	)
	flag.Parse()

	reg := obs.New()
	reg.Counter("optibfs_up").Inc()
	cfg := serve.Config{
		Algo:        core.Algorithm(*algo),
		Concurrency: *concurrency,
		Deadline:    *deadline,
		Grace:       *grace,
		QueueWait:   *queueWait,
		Options: core.Options{
			Workers:      *workers,
			Hybrid:       *hybrid,
			StallTimeout: *stallTimeout,
		},
		Batch: serve.BatchConfig{
			Enabled:  *batch,
			Window:   *batchWindow,
			MaxLanes: *batchLanes,
		},
	}
	adm := serve.AdmissionConfig{
		MaxInFlight: *admInflight,
		MaxQueue:    *admQueue,
		QueueWait:   *admQueueWait,
	}
	d := newDaemonFull(cfg, adm, *memBudget, reg, *maxBody)
	if *load != "" {
		if err := loadFile(d, *load); err != nil {
			log.Fatalf("bfsd: loading %s: %v", *load, err)
		}
		log.Printf("bfsd: serving %s as %q", *load, defaultGraph)
	}

	srv, err := obs.ServeHandler(*addr, d.handler())
	if err != nil {
		log.Fatalf("bfsd: %v", err)
	}
	log.Printf("bfsd: listening on %s (algo=%s, concurrency=%d)", srv.Addr, *algo, *concurrency)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()

	log.Printf("bfsd: draining (budget %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("bfsd: drain incomplete: %v", err)
		srv.Close()
		code = 1
	}
	// Close the registry: fleets drain and close in eviction (LRU)
	// order, mappings release after their last reader.
	d.registry.Close()
	log.Printf("bfsd: bye")
	os.Exit(code)
}
