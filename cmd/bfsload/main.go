// Command bfsload is a load generator for bfsd: it drives a running
// daemon with a weighted mix of query templates — goal-directed s–t
// queries, k-hop neighborhoods, full single-source BFS, connected
// components, and eccentricities — under either a closed loop (each
// worker fires its next query the moment the last returns) or an open
// loop (a global arrival rate, so queueing delay shows up in the tail
// instead of being absorbed by backpressure).
//
//	bfsload -addr http://127.0.0.1:8090 -duration 30s -concurrency 16
//	bfsload -rate 2000 -mix 'st=50,khop=25,full=15,components=5,ecc=5'
//	bfsload -validate -slo-p99 250ms -json bench.json
//	bfsload -graphs a,b,c -shed-budget 0.2
//	bfsload -overload-sweep 2,4,8,16,32,64 -json curve.json
//
// The target's graph is discovered from /readyz (vertex count sizes
// the source/target draws); -graphs spreads queries across named
// graphs in the daemon's registry. Responses are classified into
// admitted (200), shed (429 — the admission controller's deliberate
// backpressure), and hard errors (everything else); sheds are reported
// separately and never count as errors. Goodput is admitted-and-valid
// QPS. Latencies are recorded per template and reported as percentiles
// of the raw samples; admitted-only percentiles ride along so
// backpressure can't hide behind fast 429s. -json writes a
// machine-readable report whose p50/p90/p99 fields use stats.Quantile:
// linear interpolation between the two nearest order statistics
// (earlier versions took the lower one, without interpolating).
//
// -overload-sweep runs the closed loop once per listed concurrency
// level and emits a goodput/p99 curve — the overload test: past
// saturation, goodput should plateau instead of collapsing, and the
// admitted tail should stay bounded.
//
// The exit code is the SLO verdict: 1 if any validation failed, the
// measured p99 exceeds -slo-p99, or the shed fraction exceeds
// -shed-budget; 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"optibfs/internal/obs"
	"optibfs/internal/rng"
	"optibfs/internal/stats"
)

// kinds is the template order used everywhere (stable output).
var kinds = []string{"st", "khop", "full", "components", "ecc"}

// mixWeights parses "st=40,khop=25,..." into per-template weights.
func mixWeights(spec string) (map[string]int, error) {
	w := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		ok := false
		for _, k := range kinds {
			if kv[0] == k {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown mix kind %q (want one of %s)", kv[0], strings.Join(kinds, ", "))
		}
		w[kv[0]] = n
	}
	total := 0
	for _, n := range w {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", spec)
	}
	return w, nil
}

// sampler draws templates by weight and vertices uniformly, one per
// worker so the draw stream is deterministic under -seed.
type sampler struct {
	r       *rng.Xoshiro256
	order   []string
	cum     []uint64
	total   uint64
	n       int32
	kmax    int32
	validat bool
	graphs  []string
}

func newSampler(seed uint64, weights map[string]int, n, kmax int32, validate bool) *sampler {
	s := &sampler{r: rng.NewXoshiro256(seed), n: n, kmax: kmax, validat: validate}
	for _, k := range kinds {
		if w := weights[k]; w > 0 {
			s.order = append(s.order, k)
			s.total += uint64(w)
			s.cum = append(s.cum, s.total)
		}
	}
	return s
}

// next builds one query URL suffix and returns its template kind.
func (s *sampler) next() (kind, query string) {
	x := s.r.Uint64n(s.total)
	kind = s.order[sort.Search(len(s.cum), func(i int) bool { return x < s.cum[i] })]
	src := int32(s.r.Uint64n(uint64(s.n)))
	v := ""
	if s.validat {
		v = "&validate=1"
	}
	if len(s.graphs) > 0 {
		// Uniform draw across the named graphs: every tenant sees load,
		// so per-graph fair-share shedding has something to arbitrate.
		v += "&graph=" + s.graphs[s.r.Uint64n(uint64(len(s.graphs)))]
	}
	switch kind {
	case "st":
		dst := int32(s.r.Uint64n(uint64(s.n)))
		return kind, fmt.Sprintf("src=%d&dst=%d%s", src, dst, v)
	case "khop":
		k := 1 + s.r.Uint64n(uint64(s.kmax))
		return kind, fmt.Sprintf("src=%d&k=%d%s", src, k, v)
	case "full":
		return kind, fmt.Sprintf("src=%d%s", src, v)
	case "components":
		return kind, "kind=components" + v
	default: // ecc
		return kind, fmt.Sprintf("kind=ecc&src=%d%s", src, v)
	}
}

// Response classes: sheds are the daemon's deliberate backpressure and
// must never be lumped in with hard failures.
const (
	classAdmitted = iota // 200: the query ran
	classShed            // 429: admission controller said later
	classError           // anything else: a real failure
)

// classify buckets one HTTP status.
func classify(status int) int {
	switch {
	case status == http.StatusOK:
		return classAdmitted
	case status == http.StatusTooManyRequests:
		return classShed
	default:
		return classError
	}
}

// tally accumulates one worker's results; merged after the run so the
// hot path takes no locks.
type tally struct {
	count     map[string]int64
	errors    int64
	sheds     int64
	admitted  int64
	invalid   int64
	statuses  map[int]int64
	samples   map[string][]float64 // seconds, per kind, all responses
	okSamples []float64            // seconds, admitted (200) only
}

func newTally() *tally {
	return &tally{
		count:    map[string]int64{},
		statuses: map[int]int64{},
		samples:  map[string][]float64{},
	}
}

func (t *tally) merge(o *tally) {
	for k, v := range o.count {
		t.count[k] += v
	}
	for k, v := range o.statuses {
		t.statuses[k] += v
	}
	t.errors += o.errors
	t.sheds += o.sheds
	t.admitted += o.admitted
	t.invalid += o.invalid
	for k, v := range o.samples {
		t.samples[k] = append(t.samples[k], v...)
	}
	t.okSamples = append(t.okSamples, o.okSamples...)
}

// queryResp is the subset of bfsd's answer bfsload inspects.
type queryResp struct {
	Valid     *bool  `json:"valid"`
	Error     string `json:"error"`
	Truncated bool   `json:"truncated"`
}

// kindStats is the per-template block of the JSON report (times in
// milliseconds).
type kindStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func summarize(samples []float64, count int64) kindStats {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	ks := kindStats{Count: count}
	if len(s) == 0 {
		return ks
	}
	ks.MeanMS = sum / float64(len(s)) * 1e3
	ks.P50MS = stats.Quantile(s, 0.50) * 1e3
	ks.P90MS = stats.Quantile(s, 0.90) * 1e3
	ks.P99MS = stats.Quantile(s, 0.99) * 1e3
	ks.MaxMS = s[len(s)-1] * 1e3
	return ks
}

type report struct {
	Addr        string               `json:"addr"`
	Vertices    int64                `json:"vertices"`
	Edges       int64                `json:"edges"`
	Desc        string               `json:"desc"`
	Graphs      []string             `json:"graphs,omitempty"`
	Duration    float64              `json:"duration_s"`
	Concurrency int                  `json:"concurrency"`
	RateTarget  float64              `json:"rate_target_qps"`
	Mix         string               `json:"mix"`
	Requests    int64                `json:"requests"`
	Admitted    int64                `json:"admitted"`
	Sheds       int64                `json:"sheds"`
	ShedRate    float64              `json:"shed_rate"`
	Errors      int64                `json:"errors"`
	Invalid     int64                `json:"validation_failures"`
	QPS         float64              `json:"qps"`
	GoodputQPS  float64              `json:"goodput_qps"`
	Overall     kindStats            `json:"overall"`
	AdmittedLat kindStats            `json:"admitted_latency"`
	PerKind     map[string]kindStats `json:"per_kind"`
	SLOP99MS    float64              `json:"slo_p99_ms,omitempty"`
	ShedBudget  float64              `json:"shed_budget,omitempty"`
	SLOOK       bool                 `json:"slo_ok"`
}

// loadConfig parameterizes one closed- or open-loop run.
type loadConfig struct {
	addr        string
	duration    time.Duration
	concurrency int
	rate        float64
	weights     map[string]int
	mix         string
	kmax        int
	validate    bool
	seed        uint64
	graphs      []string
	n           int32
	shedBackoff time.Duration
	client      *http.Client
	reg         *obs.Registry
}

// runLoad executes one load run and returns its merged tally plus the
// measured wall time.
func runLoad(cfg loadConfig) (*tally, float64) {
	latency := func(kind string) *obs.Histogram {
		return cfg.reg.Histogram("bfsload_latency_seconds",
			[]float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}, obs.L("kind", kind))
	}

	// Open loop: a token bucket fed at -rate; closed loop: nil channel,
	// workers free-run.
	var tokens chan struct{}
	stop := make(chan struct{})
	if cfg.rate > 0 {
		tokens = make(chan struct{}, cfg.concurrency)
		interval := time.Duration(float64(time.Second) / cfg.rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default: // target saturated; drop the arrival
					}
				case <-stop:
					return
				}
			}
		}()
	}

	tallies := make([]*tally, cfg.concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for w := 0; w < cfg.concurrency; w++ {
		tallies[w] = newTally()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newSampler(cfg.seed+uint64(w), cfg.weights, cfg.n, int32(cfg.kmax), cfg.validate)
			s.graphs = cfg.graphs
			ta := tallies[w]
			for time.Now().Before(deadline) {
				if tokens != nil {
					select {
					case <-tokens:
					case <-stop:
						return
					}
				}
				kind, q := s.next()
				t0 := time.Now()
				status, body, rerr := get(cfg.client, cfg.addr+"/query?"+q)
				el := time.Since(t0).Seconds()
				ta.count[kind]++
				ta.samples[kind] = append(ta.samples[kind], el)
				latency(kind).Observe(el)
				if rerr != nil {
					ta.errors++
					continue
				}
				ta.statuses[status]++
				switch classify(status) {
				case classShed:
					ta.sheds++
					if cfg.shedBackoff > 0 {
						// A well-behaved client honors backpressure
						// instead of immediately re-arriving; without
						// this, a closed loop turns every shed into a
						// tight retry storm that steals CPU from the
						// admitted queries it is measuring.
						time.Sleep(cfg.shedBackoff)
					}
					continue
				case classError:
					ta.errors++
					continue
				}
				ta.admitted++
				ta.okSamples = append(ta.okSamples, el)
				if cfg.validate && (kind == "st" || kind == "khop" || kind == "full") {
					var qr queryResp
					if json.Unmarshal(body, &qr) != nil || qr.Valid == nil || !*qr.Valid {
						ta.invalid++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	elapsed := time.Since(start).Seconds()

	total := newTally()
	for _, ta := range tallies {
		total.merge(ta)
	}
	return total, elapsed
}

// buildReport turns one run's tally into the JSON report.
func buildReport(cfg loadConfig, ready *readyInfo, total *tally, elapsed float64) report {
	var requests int64
	var all []float64
	perKind := map[string]kindStats{}
	for _, k := range kinds {
		if c := total.count[k]; c > 0 {
			perKind[k] = summarize(total.samples[k], c)
			requests += c
			all = append(all, total.samples[k]...)
		}
	}
	rep := report{
		Addr:        cfg.addr,
		Vertices:    ready.Vertices,
		Edges:       ready.Edges,
		Desc:        ready.Desc,
		Graphs:      cfg.graphs,
		Duration:    elapsed,
		Concurrency: cfg.concurrency,
		RateTarget:  cfg.rate,
		Mix:         cfg.mix,
		Requests:    requests,
		Admitted:    total.admitted,
		Sheds:       total.sheds,
		Errors:      total.errors,
		Invalid:     total.invalid,
		QPS:         float64(requests) / elapsed,
		GoodputQPS:  float64(total.admitted-total.invalid) / elapsed,
		Overall:     summarize(all, requests),
		AdmittedLat: summarize(total.okSamples, total.admitted),
		PerKind:     perKind,
		SLOOK:       true,
	}
	if requests > 0 {
		rep.ShedRate = float64(total.sheds) / float64(requests)
	}
	return rep
}

// sweepLevel is one point of the -overload-sweep curve.
type sweepLevel struct {
	Concurrency   int     `json:"concurrency"`
	Requests      int64   `json:"requests"`
	Admitted      int64   `json:"admitted"`
	Sheds         int64   `json:"sheds"`
	ShedRate      float64 `json:"shed_rate"`
	Errors        int64   `json:"errors"`
	Invalid       int64   `json:"validation_failures"`
	QPS           float64 `json:"qps"`
	GoodputQPS    float64 `json:"goodput_qps"`
	P99MS         float64 `json:"p99_ms"`
	AdmittedP99MS float64 `json:"admitted_p99_ms"`
}

// sweepReport is the -overload-sweep JSON artifact.
type sweepReport struct {
	Addr           string       `json:"addr"`
	Mix            string       `json:"mix"`
	Graphs         []string     `json:"graphs,omitempty"`
	DurationS      float64      `json:"duration_per_level_s"`
	Levels         []sweepLevel `json:"levels"`
	PeakGoodputQPS float64      `json:"peak_goodput_qps"`
	Errors         int64        `json:"errors"`
	Invalid        int64        `json:"validation_failures"`
}

// parseLevels parses the -overload-sweep concurrency list.
func parseLevels(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad sweep level %q (want positive concurrency)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep %q", spec)
	}
	return out, nil
}

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8090", "bfsd base URL")
		duration    = flag.Duration("duration", 10*time.Second, "load duration (per level under -overload-sweep)")
		concurrency = flag.Int("concurrency", 8, "concurrent workers (closed loop) / max in flight (open loop)")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in QPS (0 = closed loop)")
		mix         = flag.String("mix", "st=40,khop=25,full=20,components=5,ecc=10", "query template weights")
		kmax        = flag.Int("kmax", 4, "max depth bound drawn for khop queries")
		validate    = flag.Bool("validate", false, "ask the daemon to self-validate bfs answers (&validate=1)")
		sloP99      = flag.Duration("slo-p99", 0, "fail (exit 1) if overall p99 exceeds this (0 = off)")
		shedBudget  = flag.Float64("shed-budget", -1, "fail (exit 1) if the shed fraction exceeds this (0..1; negative = off)")
		graphsFlag  = flag.String("graphs", "", "comma-separated named graphs to spread queries across (empty = the default graph)")
		sweep       = flag.String("overload-sweep", "", "comma-separated concurrency levels: run the closed loop at each and emit a goodput/p99 curve")
		shedBackoff = flag.Duration("shed-backoff", 0, "sleep this long after a 429 before the worker's next arrival (0 = immediate retry storm)")
		jsonOut     = flag.String("json", "", "write the JSON report here ('-' = stdout)")
		seed        = flag.Uint64("seed", 1, "base RNG seed (worker i uses seed+i)")
	)
	flag.Parse()

	weights, err := mixWeights(*mix)
	if err != nil {
		fatal(err)
	}
	var graphs []string
	for _, g := range strings.Split(*graphsFlag, ",") {
		if g = strings.TrimSpace(g); g != "" {
			graphs = append(graphs, g)
		}
	}
	ready, err := probeReady(*addr, graphs)
	if err != nil {
		fatal(fmt.Errorf("target not ready: %w", err))
	}
	n := int32(ready.Vertices)
	if n <= 0 {
		fatal(fmt.Errorf("target reports %d vertices", ready.Vertices))
	}

	maxConc := *concurrency
	var levels []int
	if *sweep != "" {
		if levels, err = parseLevels(*sweep); err != nil {
			fatal(err)
		}
		for _, l := range levels {
			if l > maxConc {
				maxConc = l
			}
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxConc * 2,
		MaxIdleConnsPerHost: maxConc * 2,
	}}
	cfg := loadConfig{
		addr:        *addr,
		duration:    *duration,
		concurrency: *concurrency,
		rate:        *rate,
		weights:     weights,
		mix:         *mix,
		kmax:        *kmax,
		validate:    *validate,
		seed:        *seed,
		graphs:      graphs,
		n:           n,
		shedBackoff: *shedBackoff,
		client:      client,
		reg:         obs.New(),
	}

	if levels != nil {
		runSweep(cfg, levels, *jsonOut)
		return
	}

	total, elapsed := runLoad(cfg)
	rep := buildReport(cfg, ready, total, elapsed)
	if *sloP99 > 0 {
		rep.SLOP99MS = sloP99.Seconds() * 1e3
		if rep.Overall.P99MS > rep.SLOP99MS {
			rep.SLOOK = false
		}
	}
	if *shedBudget >= 0 {
		rep.ShedBudget = *shedBudget
		if rep.ShedRate > *shedBudget {
			rep.SLOOK = false
		}
	}
	if total.invalid > 0 {
		rep.SLOOK = false
	}

	fmt.Printf("bfsload: %d requests in %.1fs = %.0f qps, goodput %.0f qps (%d admitted, %d sheds, %d errors, %d validation failures)\n",
		rep.Requests, elapsed, rep.QPS, rep.GoodputQPS, rep.Admitted, rep.Sheds, rep.Errors, rep.Invalid)
	fmt.Printf("  overall:  p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
		rep.Overall.P50MS, rep.Overall.P90MS, rep.Overall.P99MS, rep.Overall.MaxMS)
	if rep.Admitted > 0 {
		fmt.Printf("  admitted: p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n",
			rep.AdmittedLat.P50MS, rep.AdmittedLat.P90MS, rep.AdmittedLat.P99MS, rep.AdmittedLat.MaxMS)
	}
	for _, k := range kinds {
		if ks, ok := rep.PerKind[k]; ok {
			fmt.Printf("  %-11s %7d  p50 %8.2fms  p99 %8.2fms\n", k, ks.Count, ks.P50MS, ks.P99MS)
		}
	}
	if !rep.SLOOK {
		fmt.Printf("  SLO VIOLATED (p99 budget %.0fms, shed budget %.2f vs rate %.2f, validation failures %d)\n",
			rep.SLOP99MS, rep.ShedBudget, rep.ShedRate, rep.Invalid)
	}

	if *jsonOut != "" {
		writeJSONOut(*jsonOut, rep)
	}
	if !rep.SLOOK {
		os.Exit(1)
	}
}

// runSweep executes the closed loop once per concurrency level and
// emits the goodput/p99 curve. Exit is 1 only on hard errors or
// validation failures — shedding under overload is the expected
// behavior the curve exists to show.
func runSweep(cfg loadConfig, levels []int, jsonOut string) {
	sr := sweepReport{Addr: cfg.addr, Mix: cfg.mix, Graphs: cfg.graphs, DurationS: cfg.duration.Seconds()}
	fmt.Printf("bfsload: overload sweep, %.1fs per level\n", cfg.duration.Seconds())
	for i, conc := range levels {
		lc := cfg
		lc.concurrency = conc
		lc.rate = 0 // the sweep is a closed loop by construction
		lc.seed = cfg.seed + uint64(i)*1000
		total, elapsed := runLoad(lc)
		var all []float64
		var requests int64
		for _, k := range kinds {
			requests += total.count[k]
			all = append(all, total.samples[k]...)
		}
		overall := summarize(all, requests)
		admitted := summarize(total.okSamples, total.admitted)
		lv := sweepLevel{
			Concurrency:   conc,
			Requests:      requests,
			Admitted:      total.admitted,
			Sheds:         total.sheds,
			Errors:        total.errors,
			Invalid:       total.invalid,
			QPS:           float64(requests) / elapsed,
			GoodputQPS:    float64(total.admitted-total.invalid) / elapsed,
			P99MS:         overall.P99MS,
			AdmittedP99MS: admitted.P99MS,
		}
		if requests > 0 {
			lv.ShedRate = float64(total.sheds) / float64(requests)
		}
		sr.Levels = append(sr.Levels, lv)
		sr.Errors += total.errors
		sr.Invalid += total.invalid
		if lv.GoodputQPS > sr.PeakGoodputQPS {
			sr.PeakGoodputQPS = lv.GoodputQPS
		}
		fmt.Printf("  c=%-4d  %6.0f qps  goodput %6.0f qps  shed %5.1f%%  p99 %8.2fms  admitted p99 %8.2fms  (%d errors)\n",
			conc, lv.QPS, lv.GoodputQPS, lv.ShedRate*100, lv.P99MS, lv.AdmittedP99MS, total.errors)
	}
	if jsonOut != "" {
		writeJSONOut(jsonOut, sr)
	}
	if sr.Errors > 0 || sr.Invalid > 0 {
		os.Exit(1)
	}
}

func writeJSONOut(path string, v any) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	out = append(out, '\n')
	if path == "-" {
		os.Stdout.Write(out)
	} else if err := os.WriteFile(path, out, 0o644); err != nil {
		fatal(err)
	}
}

// readyInfo is bfsd's /readyz payload.
type readyInfo struct {
	Ready    bool   `json:"ready"`
	Vertices int64  `json:"vertices"`
	Edges    int64  `json:"edges"`
	Desc     string `json:"desc"`
}

// probeReady checks the target is serving. With named graphs, every
// graph is probed via /readyz?graph= and the smallest vertex count
// sizes the source draws (so every query is in range on every graph).
func probeReady(addr string, graphs []string) (*readyInfo, error) {
	if len(graphs) == 0 {
		return probeOne(addr + "/readyz")
	}
	agg := &readyInfo{Ready: true}
	for i, g := range graphs {
		ri, err := probeOne(addr + "/readyz?graph=" + g)
		if err != nil {
			return nil, fmt.Errorf("graph %q: %w", g, err)
		}
		if i == 0 || ri.Vertices < agg.Vertices {
			agg.Vertices = ri.Vertices
		}
		agg.Edges += ri.Edges
	}
	agg.Desc = fmt.Sprintf("%d graphs: %s", len(graphs), strings.Join(graphs, ","))
	return agg, nil
}

func probeOne(url string) (*readyInfo, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ri struct {
		readyInfo
		ErrorMsg string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || !ri.Ready {
		return nil, fmt.Errorf("%s: status %d ready=%v %s", url, resp.StatusCode, ri.Ready, ri.ErrorMsg)
	}
	return &ri.readyInfo, nil
}

func get(client *http.Client, url string) (status int, body []byte, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bfsload: %v\n", err)
	os.Exit(1)
}
