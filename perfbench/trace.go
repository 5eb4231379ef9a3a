package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary.
type span struct {
	Name   string
	ID     int
	Parent int // -1 for a root span
	Req    int64
	Tid    int // caller lane, for the Chrome-trace view
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced phases run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Tid: tid, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the duration in ms of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			xs = append(xs, ms(s.End-s.Start))
		}
	}
	return xs
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	P50ms   float64 `json:"p50_ms"`
	SelfP50 float64 `json:"self_p50_ms"` // span minus the time its child spans cover
}

// selfTimes builds the per-span-name table: a span's self time is its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() []layerRow {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total := map[string][]float64{}
	self := map[string][]float64{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], ms(d))
		self[s.Name] = append(self[s.Name], ms(d-child[s.ID]))
	}
	var rows []layerRow
	for name, xs := range total {
		rows = append(rows, layerRow{Name: name, Calls: len(xs), P50ms: median(xs), SelfP50: median(self[name])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// writeChrome writes the spans as Chrome-trace JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Tid, Args: map[string]any{"req": s.Req, "id": s.ID, "parent": s.Parent}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// saveChrome writes the trace under work/traces and returns its path.
func (t *tracer) saveChrome(work, name string) (string, error) {
	dir := filepath.Join(work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
