package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"optibfs/internal/core"
)

// bfsdProc is a bfsd daemon running as a child process on loopback.
type bfsdProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	logs   sync.WaitGroup // the stderr drain
	mu     sync.Mutex
	tail   []string // last log lines, for error reports
}

// startBfsd launches bfsd with its default flags apart from the
// listen address and the workload's algorithm and worker count, and
// waits until it listens.
func startBfsd(bin string, w *workload, conns int) (*bfsdProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-algo", string(w.algo), "-workers", strconv.Itoa(w.workers))
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bfsd: %w", err)
	}
	p := &bfsdProc{cmd: cmd}
	addr := make(chan string, 1)
	p.logs.Add(1)
	go func() {
		defer p.logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("bfsd did not start listening: %s", p.logTail())
	}
	p.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return p, nil
}

func (p *bfsdProc) pid() int { return p.cmd.Process.Pid }

func (p *bfsdProc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop sends SIGTERM (bfsd drains and exits 0), killing the daemon if
// it has not exited within 15s, and waits for it.
func (p *bfsdProc) stop() error {
	if p.client != nil {
		p.client.CloseIdleConnections()
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is reported by Wait
	done := make(chan error, 1)
	go func() {
		p.logs.Wait()
		done <- p.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("bfsd ignored SIGTERM: %v", <-done)
	}
}

// get performs one request and reads the whole body.
func (p *bfsdProc) get(method, path string) (int, []byte, error) {
	req, err := http.NewRequest(method, p.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// load installs (or reloads) a graph file under name and returns how
// long bfsd took to make it answerable.
func (p *bfsdProc) load(name, path string) (time.Duration, error) {
	t0 := time.Now()
	status, body, err := p.get(http.MethodPost, "/graphs/"+name+"?path="+url.QueryEscape(path))
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("load %s: %w", name, err)
	}
	if status != http.StatusOK {
		return d, fmt.Errorf("load %s: status %d: %s", name, status, strings.TrimSpace(string(body)))
	}
	return d, nil
}

// metrics scrapes /metrics into series -> value.
func (p *bfsdProc) metrics() (map[string]float64, error) {
	status, body, err := p.get(http.MethodGet, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// metricDeltas subtracts two scrapes, keeping the serving counters
// that explain a run (requests, batches, sheds, rebuilds, evictions).
func metricDeltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if !strings.HasPrefix(k, "optibfs_serve_") && !strings.HasPrefix(k, "optibfs_admission_") &&
			!strings.HasPrefix(k, "optibfs_registry_") {
			continue
		}
		if !strings.Contains(k, "_total") && !strings.HasSuffix(k, "_count") && !strings.HasSuffix(k, "_sum") {
			continue
		}
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// sumSeries adds every series of the named metric, whatever its labels.
func sumSeries(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// httpAnswer holds the /query response fields the oracle can check.
type httpAnswer struct {
	Levels  int32 `json:"levels"`
	Reached int64 `json:"reached"`
	Edges   int64 `json:"edges_traversed"`
	Dist    int32 `json:"dist"`
	Ecc     int32 `json:"ecc"`
	Comps   int   `json:"components"`
	Largest int64 `json:"largest"`
}

func queryPath(q query) string {
	switch q.Kind {
	case "st":
		return fmt.Sprintf("/query?graph=%s&src=%d&dst=%d", q.Graph, q.Src, q.Dst)
	case "khop":
		return fmt.Sprintf("/query?graph=%s&src=%d&k=%d", q.Graph, q.Src, q.K)
	case "components":
		return "/query?graph=" + q.Graph + "&kind=components"
	case "ecc":
		return fmt.Sprintf("/query?graph=%s&kind=ecc&src=%d", q.Graph, q.Src)
	}
	return fmt.Sprintf("/query?graph=%s&src=%d", q.Graph, q.Src)
}

// errWrong marks an answer that disagrees with the oracle.
var errWrong = errors.New("answer disagrees with the serial oracle")

// query sends q and checks the answer. The returned sample's latency
// runs from the send to the end of the body; checking is not timed.
func (p *bfsdProc) query(q query) sample {
	s := sample{kind: q.Kind}
	t0 := time.Now()
	status, body, err := p.get(http.MethodGet, queryPath(q))
	s.lat = time.Since(t0)
	s.bytes = len(body)
	switch {
	case err != nil:
		s.fail = err.Error()
	case status == http.StatusTooManyRequests:
		s.shed = true
		s.fail = "429 " + strings.TrimSpace(string(body))
	case status != http.StatusOK:
		s.fail = fmt.Sprintf("%d %s %s", status, queryPath(q), strings.TrimSpace(string(body)))
	default:
		var a httpAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			s.wrong, s.fail = true, err.Error()
			break
		}
		if s.setChecked(checkHTTP(q, a)); !s.ok {
			break
		}
		s.edges = a.Edges
		if q.Kind == "ecc" {
			s.edges = q.Want.Edges // a full traversal whose edge count the response omits
		}
	}
	return s
}

// setChecked marks s answered: ok, or wrong with the oracle mismatch err.
func (s *sample) setChecked(err error) {
	if err != nil {
		s.wrong, s.fail = true, err.Error()
		return
	}
	s.ok = true
}

// checkHTTP compares a bfsd answer with the oracle fingerprint.
func checkHTTP(q query, a httpAnswer) error {
	w := q.Want
	ok := false
	switch q.Kind {
	case "full":
		ok = a.Reached == w.Reached && a.Levels == w.Levels && a.Edges == w.Edges
	case "st":
		ok = a.Dist == w.Dist && a.Reached == w.Reached
	case "khop":
		ok = a.Reached == w.Reached
	case "ecc":
		ok = a.Ecc == w.Ecc
	case "components":
		ok = a.Comps == w.Comps && a.Largest == w.Largest
	}
	if !ok {
		err := fmt.Errorf("%w: %s %+v, want %+v", errWrong, q.Kind, a, w)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return err
	}
	return nil
}

// checkDist compares an in-process answer (core Result or serve
// Answer) with the oracle fingerprint. levelSizes is nil for a serve
// Answer, which does not carry the level histogram.
func checkDist(q query, dist []int32, reached int64, levels int32, levelSizes []int64) error {
	w := q.Want
	ok := false
	switch q.Kind {
	case "full":
		ok = reached == w.Reached && levels == w.Levels && distHash(dist) == w.DistHash &&
			(levelSizes == nil || slices.Equal(levelSizes, w.LevelHist))
	case "st":
		ok = dist[q.Dst] == w.Dist && reached == w.Reached
	case "khop":
		ok = reached == w.Reached
	}
	if !ok {
		err := fmt.Errorf("%w: %s src=%d reached=%d levels=%d, want %+v", errWrong, q.Kind, q.Src, reached, levels, w)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return err
	}
	return nil
}

// goal is the traversal bound of a BFS-kind query.
func (q query) goal() core.Goal {
	switch q.Kind {
	case "st":
		return core.GoalTo(q.Dst)
	case "khop":
		return core.Goal{MaxDepth: q.K}
	}
	return core.Goal{}
}

// inProcess reports whether the query kind runs through the core and
// serve layers; analysis kinds are timed at the HTTP layer only.
func (q query) inProcess() bool { return q.Kind == "full" || q.Kind == "st" || q.Kind == "khop" }
