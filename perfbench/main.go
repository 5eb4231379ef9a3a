// Command perfbench is optibfs's end-to-end and per-layer benchmark.
// It generates every input from its seed, drives the program's layers
// through their public entry points from outside — mmio.LoadMapped,
// core.NewEngine/NewBackend and Engine.RunGoal, serve.Registry.Begin
// plus Guard.QueryFusedGoal, and the bfsd daemon over loopback HTTP —
// checks every answer against serial-oracle fingerprints, and prints
// one JSON result as the last line of standard output.
//
//	bash perfbench/run.sh --workload kernel-rmat20 --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 40 --trace 1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// layer replay and reports the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"optibfs/internal/core"
)

// workload is one set of inputs and one way of driving them.
type workload struct {
	name   string
	graphs []graphSpec
	mix    string // "full", "st" or "bfsload" (see makeQueries)
	pool   int    // distinct queries in the seeded sequence
	// algo is the kernel the workload times; the replay's core, serve
	// and bfsd legs all run it so their differences isolate layers.
	algo core.Algorithm
	// workers per engine in bfsd and the replay (0 = GOMAXPROCS, bfsd's
	// default).
	workers int
	// served workloads are timed through bfsd over HTTP; the others
	// call Engine.RunGoal in this process.
	served bool
	conns  int     // client connections (closed loop) or senders (open loop)
	rate   float64 // open-loop requests per second; 0 = closed loop
	// reloadEvery re-installs the first graph under its own name during
	// the open loop (0 = never).
	reloadEvery time.Duration
	// setupReps repeats the whole setup; setup_s is the median.
	setupReps int
}

var workloads = []*workload{
	{
		// Far larger than L2: the optimistic queue and stealing
		// machinery does nearly all the work.
		name:      "kernel-rmat20",
		graphs:    []graphSpec{{Name: "rmat20", Kind: "rmat", Scale: 20, EdgeFactor: 16}},
		mix:       "full",
		pool:      8,
		algo:      core.BFSWSL,
		setupReps: 41,
	},
	{
		// Fits in L2; the kernel is about a third of each request, and
		// HTTP, the Guard, the batch window and admission the rest.
		name:      "serve-st",
		graphs:    []graphSpec{{Name: "rmat14", Kind: "rmat", Scale: 14, EdgeFactor: 8}},
		mix:       "st",
		pool:      2048,
		algo:      core.BFSWL,
		served:    true,
		conns:     2,
		setupReps: 61,
	},
	{
		// Reloads beside reads exercise the registry, mmap loads while
		// serving, admission and every per-kind encoder.
		name: "serve-mixed-open",
		graphs: []graphSpec{
			{Name: "rmat16", Kind: "rmat", Scale: 16, EdgeFactor: 8},
			{Name: "plaw16", Kind: "plaw", Scale: 16, EdgeFactor: 8},
			{Name: "grid40", Kind: "grid3d", Side: 40},
		},
		mix:  "bfsload",
		pool: 1200,
		algo: core.BFSWL,
		// One worker per engine: on these 65k-vertex graphs a traversal
		// at 2 workers paid two cross-vCPU barrier wake-ups per level
		// (~90 levels on the grid) and ran 25% slower than at 1. At 30
		// requests/s the vCPUs idle between requests, so each wake-up
		// also waited on the hypervisor: cpu_ms_per_op spread 10–27%
		// across seeds at 2 workers, 5–7% at 1. This workload is about
		// the registry, reloads and encoders, not kernel parallelism.
		workers:     1,
		served:      true,
		conns:       2,
		rate:        openLoopRate,
		reloadEvery: 2 * time.Second,
		setupReps:   81,
	},
}

// openLoopRate is a fifth of the ~150/s the serve-mixed-open mix
// sustains on two connections on a 2-vCPU host: at half of it, queueing
// amplified the host's CPU steal into a 35–46% p90 spread across seeds
// (see README.md).
const openLoopRate = 30

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string // first few failed operations, for the report
}

// config is one invocation's settings.
type config struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	work    string // scratch root inside the checkout
	bfsd    string // bfsd binary
	self    string // this binary, for the generator child
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 40, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced layer replay (per-layer metrics)")
		work    = flag.String("work", "", "directory for inputs, reports and traces")
		bfsd    = flag.String("bfsd", "", "bfsd binary")
		genOnly = flag.Bool("gen", false, "internal: generate one input cache entry and exit")
	)
	flag.Parse()
	if *work == "" {
		fatalf("-work is required (use perfbench/run.sh)")
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	if *name == "all" {
		os.Exit(runAll(self, *work, *bfsd, *seed, *seconds, *trace))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatalf("%v", err)
	}
	if *genOnly {
		dir := filepath.Join(*work, "inputs", w.cacheKey(*seed))
		if err := generateInputs(w, *seed, dir); err != nil {
			fatalf("gen: %v", err)
		}
		return
	}
	if *bfsd == "" {
		fatalf("-bfsd is required (use perfbench/run.sh)")
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("want --seconds > 0 and --trace 0 or 1")
	}
	cfg := &config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, bfsd: *bfsd, self: self}
	res, rep, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	// A metric with no samples behind it would make the line invalid
	// JSON; report it as 0 and name it in the diagnostics.
	var unmeasured []string
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			unmeasured = append(unmeasured, k)
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	if len(unmeasured) > 0 {
		sort.Strings(unmeasured)
		rep["unmeasured"] = unmeasured
	}
	writeReport(cfg, res, rep)
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes one workload run.
func run(cfg *config) (*result, map[string]any, error) {
	in, err := loadInputs(cfg.w, cfg.seed, cfg.work, cfg.self)
	if err != nil {
		return nil, nil, err
	}
	rep := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": hostFacts(), "gen_s": in.genS, "queries_in_pool": len(in.Queries),
	}
	var graphs []map[string]any
	for _, g := range in.Graphs {
		graphs = append(graphs, map[string]any{"name": g.Name, "vertices": g.Vertices, "edges": g.Edges, "bytes": g.Bytes})
	}
	rep["graphs"] = graphs
	if cfg.w.served {
		return runServed(cfg, in, rep)
	}
	return runKernel(cfg, in, rep)
}

// sample is one end-to-end operation.
type sample struct {
	kind  string
	at    time.Duration // when it was sent (open loop: due) within its phase's span
	lat   time.Duration // send (closed loop) or due time (open loop) to reply
	lag   time.Duration // open loop: send minus due; closed loop: turnaround since the caller's last reply
	ok    bool          // answered and validated
	wrong bool          // answered, but not what the oracle says
	shed  bool          // refused with 429
	edges int64         // edges traversed by the answer
	bytes int           // response body bytes (HTTP only)
	fail  string        // why a failed operation failed
}

// phase summarizes the samples of one measured interval.
type phase struct {
	samples []sample
	// span is the interval the samples' at values fall in: wall time
	// for the served loops, the time inside RunGoal for the kernel loop.
	span time.Duration
	cpu  time.Duration      // of the process doing the work
	host map[string]float64 // machine-wide CPU shares (hostShares)
}

func (p *phase) latencies() []float64 {
	var xs []float64
	for _, s := range p.samples {
		if s.ok {
			xs = append(xs, ms(s.lat))
		}
	}
	return xs
}

func (p *phase) counts() (attempted, ok, wrong, shed int64, edges int64) {
	for _, s := range p.samples {
		attempted++
		switch {
		case s.ok:
			ok++
			edges += s.edges
		case s.wrong:
			wrong++
		case s.shed:
			shed++
		}
	}
	return
}

// Rate and latency figures are computed per time window and the median
// across windows is reported: a burst of CPU steal from a neighbouring
// VM that covers part of a run then moves the run's figure far less.
// Every window holds at least minWindowSamples validated samples, so
// each window's p90 has ten samples beyond it.
const (
	maxWindows       = 6
	minWindowSamples = 100
)

// windows splits the phase's samples by p.span into equal slices.
func (p *phase) windows() []*phase {
	_, ok, _, _, _ := p.counts()
	n := max(1, min(maxWindows, int(ok)/minWindowSamples))
	ws := make([]*phase, n)
	for i := range ws {
		ws[i] = &phase{span: p.span / time.Duration(n)}
	}
	for _, s := range p.samples {
		i := min(n-1, int(int64(s.at)*int64(n)/int64(max(p.span, 1))))
		ws[i].samples = append(ws[i].samples, s)
	}
	return ws
}

// endToEnd computes the end-to-end metrics of a measured phase.
func endToEnd(p *phase, setupS, peakRSS float64) (map[string]metric, map[string]any) {
	var p50, p90, good, teps []float64
	for _, w := range p.windows() {
		lat := w.latencies()
		_, ok, _, _, edges := w.counts()
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		good = append(good, float64(ok)/w.span.Seconds())
		teps = append(teps, float64(edges)/w.span.Seconds()/1e6)
	}
	lat := p.latencies()
	_, ok, _, _, _ := p.counts()
	m := map[string]metric{
		"setup_s":        {setupS, "s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p90_ms": {median(p90), "ms"},
		"goodput_per_s":  {median(good), "1/s"},
		"mteps":          {median(teps), "MTEPS"},
		"cpu_ms_per_op":  {ms(p.cpu) / float64(max(ok, 1)), "ms"},
		"peak_rss_mb":    {peakRSS, "MB"},
	}
	diag := map[string]any{
		"latency_samples":    len(lat),
		"windows":            len(p50),
		"window_p50_ms":      p50,
		"window_p90_ms":      p90,
		"window_goodput":     good,
		"whole_run_p50_ms":   quantile(lat, 0.5),
		"whole_run_p90_ms":   quantile(lat, 0.9),
		"samples_beyond_p90": len(lat) - int(math.Ceil(0.9*float64(len(lat)))),
		"span_s":             p.span.Seconds(),
		"cpu_s":              p.cpu.Seconds(),
		"host_cpu":           p.host,
	}
	return m, diag
}

// tally folds a phase into the result's attempted/failed/correct and
// keeps the first few failures for the report.
func (r *result) tally(p *phase) {
	a, ok, wrong, _, _ := p.counts()
	r.Attempted += a
	r.Failed += a - ok
	if wrong > 0 {
		r.Correct = false
	}
	for _, s := range p.samples {
		if !s.ok && len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf("%s after %.1f ms: %s", s.kind, ms(s.lat), s.fail))
		}
	}
}

// lagP90 is the client's lateness at the 90th percentile.
func lagP90(p *phase) float64 {
	var xs []float64
	for _, s := range p.samples {
		xs = append(xs, ms(s.lag))
	}
	return quantile(xs, 0.9)
}

// writeReport prints the run's diagnostics to standard error and keeps
// them as JSON next to the inputs.
func writeReport(cfg *config, res *result, rep map[string]any) {
	rep["result"] = res
	if len(res.failures) > 0 {
		rep["failures"] = res.failures
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Fprintln(os.Stderr, string(b))
	dir := filepath.Join(cfg.work, "reports")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.w.name, cfg.seed, btoi(cfg.trace)))
		if err := os.WriteFile(file, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process (so each peak
// RSS is its own) and prints every metric by name with its unit.
func runAll(self, work, bfsd string, seed uint64, seconds float64, trace int) int {
	code := 0
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		cmd := exec.Command(self, "-work", work, "-bfsd", bfsd, "-workload", w.name,
			"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		err := cmd.Run()
		var res result
		if err == nil {
			err = json.Unmarshal(lastLine(out.Bytes()), &res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("%s  correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		for _, k := range names {
			m := res.Metrics[k]
			fmt.Printf("  %-28s %14.4f %s\n", k, m.Value, m.Unit)
			total.Metrics[w.name+"/"+k] = m
		}
	}
	b, _ := json.Marshal(&total)
	fmt.Println(string(b))
	return code
}

func lastLine(b []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// gcQuiet collects garbage and returns freed memory to the OS, so one
// setup repetition's discarded engine does not inflate the next one's
// peak RSS by however far the collector happened to lag.
func gcQuiet() { debug.FreeOSMemory() }
