// The Registry serves many named graphs from one process under a
// shared memory budget. Each entry owns a Guard fleet plus (optionally)
// the mmap that backs its CSR; the registry adds the policy layers a
// multi-tenant daemon needs:
//
//   - Ref-counted lifecycle: queries run under a Lease that pins the
//     entry (LRU-wise) and retains its mapping, so eviction can retire
//     a graph while draining queries still read its pages — the unmap
//     happens only after the last lease releases. The entry's base
//     mapping reference is dropped only in retire, after the guard has
//     drained, so a Lease's Retain can never race the final Release.
//   - Memory-budget LRU eviction: inserts that would exceed the budget
//     evict idle (lease-free) entries least-recently-used first;
//     entries with live leases are pinned and never evicted, so an
//     insert that cannot fit even after evicting every idle entry
//     fails with ErrBudgetExceeded rather than unmapping under a
//     reader.
//   - Single-flight loading: concurrent loads of the same name
//     collapse onto one loader; followers share its outcome.
//   - Admission control: Begin routes every query through the global
//     deadline-aware admission controller (see admission.go) before
//     touching the entry.
//
// Wedged-engine rule: a Guard that abandoned engines may have zombie
// goroutines still reading the graph, so retire leaks the mapping
// (never unmaps) when Abandoned() > 0 — the same rule bfsd applied to
// its single anonymous graph before the registry existed.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/obs"
)

// ErrNotFound reports a query or evict against a name the registry
// does not hold (never loaded, or already evicted).
var ErrNotFound = errors.New("serve: graph not found")

// ErrLoading reports a query against a name whose (first) load is
// still in flight.
var ErrLoading = errors.New("serve: graph still loading")

// ErrBudgetExceeded reports a load that cannot fit in the memory
// budget even after evicting every idle graph — the remainder are
// pinned by live leases.
var ErrBudgetExceeded = errors.New("serve: memory budget exceeded")

// RegistryConfig tunes a Registry. The zero value serves with no
// memory budget and default guard/admission settings.
type RegistryConfig struct {
	// MemoryBudget caps the summed cost of resident graphs, in bytes.
	// 0 = unlimited (no eviction except explicit Evict/swap).
	MemoryBudget int64
	// Guard is the per-graph Guard template (Algo, Options, fleet
	// size, deadlines, batching). Guard.Registry is overridden by Obs.
	Guard Config
	// Admission tunes the global admission controller.
	Admission AdmissionConfig
	// Obs receives registry, admission, and guard metrics. Nil = a
	// private registry.
	Obs *obs.Registry
}

// GraphSource loads one graph for Registry.Load. It returns either a
// mapped graph (csr aliases the mapping; the registry takes over the
// load's base reference) or a plain heap CSR with mapped == nil.
type GraphSource func(ctx context.Context) (csr *graph.CSR, mapped *mmio.MappedGraph, err error)

// entry is one resident graph. Mutable fields are guarded by the
// registry mutex.
type entry struct {
	name    string
	gen     uint64
	guard   *Guard
	mapped  *mmio.MappedGraph // nil for heap-loaded graphs
	csr     *graph.CSR
	cost    int64
	leases  int    // live Lease count; > 0 pins against eviction
	lastUse uint64 // registry useClock at last Acquire (LRU key)
	// ext carries per-generation caches (bfsd's components cache);
	// it dies with the entry, so a swap naturally invalidates it.
	ext sync.Map
}

// loadCall is one single-flight load in progress. done is closed when
// the leader finishes; followers then read err.
type loadCall struct {
	done chan struct{}
	err  error
}

// GraphInfo is a point-in-time snapshot of one entry, for listings
// and readiness reporting.
type GraphInfo struct {
	Name     string `json:"name"`
	Gen      uint64 `json:"gen"`
	Vertices int32  `json:"vertices"`
	Edges    int64  `json:"edges"`
	Cost     int64  `json:"cost_bytes"`
	Mapped   bool   `json:"mapped"`
	Leases   int    `json:"leases"`
	Loading  bool   `json:"loading,omitempty"`
}

// Registry is the named multi-graph serving layer. Safe for concurrent
// use.
type Registry struct {
	cfg RegistryConfig
	adm *admission

	mu       sync.Mutex
	closed   bool
	entries  map[string]*entry
	loading  map[string]*loadCall
	resident int64
	useClock uint64
	genSeq   uint64
	retiring sync.WaitGroup

	residentG *obs.Gauge
	graphsG   *obs.Gauge
	evictions func(reason string) *obs.Counter
	leakedG   *obs.Gauge
	leaked    atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	cfg.Guard.Registry = cfg.Obs
	r := &Registry{
		cfg:     cfg,
		adm:     newAdmission(cfg.Admission, cfg.Obs),
		entries: map[string]*entry{},
		loading: map[string]*loadCall{},
	}
	r.residentG = cfg.Obs.Gauge("optibfs_registry_resident_bytes")
	r.graphsG = cfg.Obs.Gauge("optibfs_registry_graphs")
	r.evictions = func(reason string) *obs.Counter {
		return cfg.Obs.Counter("optibfs_registry_evictions_total", obs.L("reason", reason))
	}
	r.leakedG = cfg.Obs.Gauge("optibfs_registry_leaked_mappings")
	return r
}

// Obs returns the metrics registry every layer reports into.
func (r *Registry) Obs() *obs.Registry { return r.cfg.Obs }

// graphCost is the resident-memory cost model: the CSR's array bytes.
// For mapped graphs this equals the mapped section payload (what the
// page cache holds once the graph is fully touched).
func graphCost(g *graph.CSR) int64 {
	return int64(len(g.Offsets))*8 + int64(len(g.Edges))*4
}

// Load installs (or replaces) the named graph from source, under
// single-flight: if a load of the same name is already in flight the
// call waits for it and shares its outcome instead of loading again.
// A replaced generation is retired in the background once its draining
// queries finish. Returns ErrBudgetExceeded when eviction cannot make
// room, ErrClosed after Close.
func (r *Registry) Load(ctx context.Context, name string, source GraphSource) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if c, ok := r.loading[name]; ok {
		r.mu.Unlock()
		select {
		case <-c.done:
			return c.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c := &loadCall{done: make(chan struct{})}
	r.loading[name] = c
	r.mu.Unlock()

	c.err = r.loadLeader(ctx, name, source)

	r.mu.Lock()
	delete(r.loading, name)
	r.mu.Unlock()
	close(c.done)
	return c.err
}

// loadLeader runs the actual load: source, guard construction, then
// eviction planning + install under one critical section.
func (r *Registry) loadLeader(ctx context.Context, name string, source GraphSource) error {
	csr, mapped, err := source(ctx)
	if err != nil {
		return err
	}
	abort := func() {
		if mapped != nil {
			mapped.Release()
		}
	}
	gd, err := New(csr, r.cfg.Guard)
	if err != nil {
		abort()
		return err
	}
	cost := graphCost(csr)

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		gd.Close()
		abort()
		return ErrClosed
	}
	victims, err := r.planEvictionsLocked(name, cost)
	if err != nil {
		r.mu.Unlock()
		gd.Close()
		abort()
		return err
	}
	for _, v := range victims {
		r.removeLocked(v)
		r.evictions("budget").Inc()
	}
	old := r.entries[name]
	if old != nil {
		r.removeLocked(old)
		r.evictions("swap").Inc()
	}
	r.genSeq++
	e := &entry{
		name: name, gen: r.genSeq,
		guard: gd, mapped: mapped, csr: csr, cost: cost,
	}
	r.useClock++
	e.lastUse = r.useClock
	r.entries[name] = e
	r.resident += cost
	r.updateGaugesLocked()
	r.mu.Unlock()

	for _, v := range victims {
		r.retireAsync(v)
	}
	if old != nil {
		r.retireAsync(old)
	}
	return nil
}

// planEvictionsLocked picks the idle entries to evict so that target
// fits in the budget. It mutates nothing; the caller removes the
// victims. Entries with live leases are pinned; if evicting every
// idle entry still cannot make room, the load fails.
func (r *Registry) planEvictionsLocked(target string, cost int64) ([]*entry, error) {
	if r.cfg.MemoryBudget <= 0 {
		return nil, nil
	}
	// The displaced same-name generation frees its cost too.
	after := r.resident + cost
	if old := r.entries[target]; old != nil {
		after -= old.cost
	}
	if after <= r.cfg.MemoryBudget {
		return nil, nil
	}
	idle := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		if e.name != target && e.leases == 0 {
			idle = append(idle, e)
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].lastUse < idle[j].lastUse })
	var victims []*entry
	for _, e := range idle {
		if after <= r.cfg.MemoryBudget {
			break
		}
		victims = append(victims, e)
		after -= e.cost
	}
	if after > r.cfg.MemoryBudget {
		return nil, fmt.Errorf("%w: need %d bytes, budget %d, %d pinned",
			ErrBudgetExceeded, cost, r.cfg.MemoryBudget, len(r.entries)-len(idle))
	}
	return victims, nil
}

// removeLocked unlinks e from the registry maps and accounting. The
// caller must subsequently retire it (sync or async) exactly once.
func (r *Registry) removeLocked(e *entry) {
	if r.entries[e.name] == e {
		delete(r.entries, e.name)
	}
	r.resident -= e.cost
	r.updateGaugesLocked()
}

func (r *Registry) updateGaugesLocked() {
	r.residentG.Set(float64(r.resident))
	r.graphsG.Set(float64(len(r.entries)))
	r.adm.setGraphs(len(r.entries))
}

// retireAsync tears e down in the background; Close waits for all
// outstanding retires.
func (r *Registry) retireAsync(e *entry) {
	r.retiring.Add(1)
	go func() {
		defer r.retiring.Done()
		r.retire(e)
	}()
}

// retire drains and tears down a removed entry: close the guard
// (blocks until in-flight queries return their slots), then drop the
// entry's base mapping reference — unless the guard abandoned wedged
// engines, whose zombie goroutines may still read the pages; then the
// mapping is leaked instead. Draining leases hold their own Retain, so
// the actual unmap happens at the last Release, wherever that is.
func (r *Registry) retire(e *entry) {
	e.guard.Close()
	if e.mapped == nil {
		return
	}
	if e.guard.Abandoned() > 0 {
		r.leaked.Add(1)
		r.leakedG.Add(1)
		return
	}
	e.mapped.Release()
}

// Evict removes the named graph. In-flight queries drain; new queries
// see ErrNotFound. Idempotent: evicting an absent name returns
// ErrNotFound and changes nothing.
func (r *Registry) Evict(name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return ErrNotFound
	}
	r.removeLocked(e)
	r.evictions("explicit").Inc()
	r.mu.Unlock()
	r.retireAsync(e)
	return nil
}

// Lease pins one graph generation for the duration of a query (or any
// read): the entry cannot be LRU-evicted and its mapping cannot be
// unmapped until Release. Release is idempotent.
type Lease struct {
	r          *Registry
	e          *entry
	admRelease func()
	once       sync.Once
}

// Graph returns the leased CSR.
func (l *Lease) Graph() *graph.CSR { return l.e.csr }

// Guard returns the leased generation's engine fleet.
func (l *Lease) Guard() *Guard { return l.e.guard }

// MappedGraph returns the mapping backing the CSR, or nil for
// heap-loaded graphs.
func (l *Lease) MappedGraph() *mmio.MappedGraph { return l.e.mapped }

// Gen returns the generation number (bumped on every install/swap).
func (l *Lease) Gen() uint64 { return l.e.gen }

// Name returns the graph's registry name.
func (l *Lease) Name() string { return l.e.name }

// Ext is a per-generation scratch map for caller caches (e.g. bfsd's
// components cache); it is discarded with the generation on swap.
func (l *Lease) Ext() *sync.Map { return &l.e.ext }

// Release drops the lease's pin, mapping reference, and admission slot.
func (l *Lease) Release() {
	l.once.Do(func() {
		if l.e.mapped != nil {
			l.e.mapped.Release()
		}
		l.r.mu.Lock()
		l.e.leases--
		l.r.mu.Unlock()
		if l.admRelease != nil {
			l.admRelease()
		}
	})
}

// Acquire leases the named graph without admission control (listings,
// readiness, validation). Returns ErrNotFound / ErrLoading / ErrClosed.
func (r *Registry) Acquire(name string) (*Lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	e, ok := r.entries[name]
	if !ok {
		if _, inflight := r.loading[name]; inflight {
			return nil, ErrLoading
		}
		return nil, ErrNotFound
	}
	e.leases++
	r.useClock++
	e.lastUse = r.useClock
	// Retain under the lock, while the entry is installed: the base
	// reference is still held (retire drops it only after removal), so
	// this can never race the final Release.
	if e.mapped != nil {
		e.mapped.Retain()
	}
	return &Lease{r: r, e: e}, nil
}

// Begin is the query-path entry: global admission (deadline-aware,
// fair-share) then a lease. The returned Lease's Release also frees
// the admission slot. Errors: *ShedError (Is ErrOverloaded),
// ErrNotFound, ErrLoading, ErrClosed, or the context's error.
func (r *Registry) Begin(ctx context.Context, name string) (*Lease, error) {
	release, err := r.adm.admit(ctx, name)
	if err != nil {
		return nil, err
	}
	l, err := r.Acquire(name)
	if err != nil {
		release()
		return nil, err
	}
	l.admRelease = release
	return l, nil
}

// EstimatedWait is the admission controller's current wait estimate
// (what Retry-After should be derived from).
func (r *Registry) EstimatedWait() time.Duration { return r.adm.EstimatedWait() }

// Info snapshots one entry. ok == false when the name is absent and
// not loading.
func (r *Registry) Info(name string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return infoLocked(e), true
	}
	if _, inflight := r.loading[name]; inflight {
		return GraphInfo{Name: name, Loading: true}, true
	}
	return GraphInfo{}, false
}

// List snapshots every entry (and in-flight load), sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	out := make([]GraphInfo, 0, len(r.entries)+len(r.loading))
	for _, e := range r.entries {
		out = append(out, infoLocked(e))
	}
	for name := range r.loading {
		if _, ok := r.entries[name]; !ok {
			out = append(out, GraphInfo{Name: name, Loading: true})
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func infoLocked(e *entry) GraphInfo {
	return GraphInfo{
		Name: e.name, Gen: e.gen,
		Vertices: e.csr.NumVertices(), Edges: e.csr.NumEdges(),
		Cost: e.cost, Mapped: e.mapped != nil && e.mapped.Mapped(),
		Leases: e.leases,
	}
}

// LeakedMappings reports how many retired mappings were leaked rather
// than released because their guard had abandoned wedged engines (whose
// zombie goroutines might still read the pages). Auditors use this to
// tell a deliberate leak from a lifecycle bug.
func (r *Registry) LeakedMappings() int64 { return r.leaked.Load() }

// ResidentBytes reports the summed cost of resident graphs.
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resident
}

// Close shuts the registry: new loads/queries fail with ErrClosed,
// resident graphs are retired in eviction (LRU) order — each guard
// drains its in-flight queries before the next closes — and Close
// blocks until every background retire has finished too. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.retiring.Wait()
		return
	}
	r.closed = true
	drain := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		drain = append(drain, e)
	}
	sort.Slice(drain, func(i, j int) bool { return drain[i].lastUse < drain[j].lastUse })
	for _, e := range drain {
		r.removeLocked(e)
	}
	r.mu.Unlock()
	for _, e := range drain {
		r.evictions("close").Inc()
		r.retire(e)
	}
	r.retiring.Wait()
}
