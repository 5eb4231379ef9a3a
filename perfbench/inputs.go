package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/mmio"
	"optibfs/internal/rng"
)

// graphSpec describes one generated input graph.
type graphSpec struct {
	Name string // registry name in bfsd and the in-process registry
	Kind string // "rmat", "plaw" (Chung–Lu, gamma 2.2) or "grid3d"
	// Scale is log2 of the vertex count (rmat, plaw); EdgeFactor the
	// directed edges per vertex. Side is the grid3d edge length.
	Scale, EdgeFactor int
	Side              int32
}

func (s graphSpec) generate(seed uint64) (*graph.CSR, error) {
	n := int32(1) << s.Scale
	m := int64(s.EdgeFactor) << s.Scale
	switch s.Kind {
	case "rmat":
		return gen.Graph500RMAT(n, m, seed, gen.Options{})
	case "plaw":
		return gen.ChungLu(n, m, 2.2, seed, gen.Options{})
	case "grid3d":
		return gen.Grid3D(s.Side, s.Side, s.Side)
	}
	return nil, fmt.Errorf("unknown graph kind %q", s.Kind)
}

// query is one request of a workload's seeded sequence, with the
// serial oracle's fingerprint of the correct answer.
type query struct {
	Kind  string      `json:"kind"` // full, st, khop, components, ecc
	Graph string      `json:"graph"`
	Src   int32       `json:"src"`
	Dst   int32       `json:"dst"`
	K     int32       `json:"k"`
	Want  fingerprint `json:"want"`
}

// fingerprint is the oracle's answer, small enough that checking every
// response against it keeps the oracle's arrays out of the measured
// process. Which fields apply depends on the query kind.
type fingerprint struct {
	Reached   int64   `json:"reached"`              // full, st, khop
	Levels    int32   `json:"levels"`               // full
	Edges     int64   `json:"edges"`                // full, ecc: edges incident to reached vertices
	LevelHist []int64 `json:"level_hist,omitempty"` // full
	DistHash  uint64  `json:"dist_hash"`            // full
	Dist      int32   `json:"dist"`                 // st
	Ecc       int32   `json:"ecc"`                  // ecc
	Comps     int     `json:"components"`           // components
	Largest   int64   `json:"largest"`              // components
}

// graphFile is one generated graph as written to the input cache.
type graphFile struct {
	Name     string `json:"name"`
	File     string `json:"file"` // relative to the cache entry
	Bytes    int64  `json:"bytes"`
	Vertices int32  `json:"vertices"`
	Edges    int64  `json:"edges"`
}

// inputs is a workload's whole generated input for one seed.
type inputs struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Graphs   []graphFile `json:"graphs"`
	Queries  []query     `json:"queries"`

	dir  string  // cache entry directory
	genS float64 // generation time, 0 on a cache hit
}

func (in *inputs) path(gf graphFile) string { return filepath.Join(in.dir, gf.File) }

// distHash fingerprints a whole distance array.
func distHash(dist []int32) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, d := range dist {
		h = (h ^ uint64(uint32(d))) * 0x100000001b3
	}
	return h
}

// fullPrint is the fingerprint of a complete traversal's distances.
func fullPrint(g *graph.CSR, dist []int32) fingerprint {
	fp := fingerprint{DistHash: distHash(dist)}
	fp.Reached, fp.Edges = graph.ReachedCount(g, dist)
	for _, d := range dist {
		if d == graph.Unreached {
			continue
		}
		for int(d) >= len(fp.LevelHist) {
			fp.LevelHist = append(fp.LevelHist, 0)
		}
		fp.LevelHist[d]++
	}
	fp.Levels = int32(len(fp.LevelHist))
	fp.Ecc = graph.Eccentricity(dist)
	return fp
}

// countWithin counts vertices at distance <= k.
func countWithin(dist []int32, k int32) int64 {
	var c int64
	for _, d := range dist {
		if d != graph.Unreached && d <= k {
			c++
		}
	}
	return c
}

// components counts weakly connected components and the largest size,
// by union-find over every edge (independent of the BFS code paths).
func components(g *graph.CSR) (int, int64) {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if a, b := find(u), find(v); a != b {
				parent[a] = b
			}
		}
	}
	size := map[int32]int64{}
	var largest int64
	for v := int32(0); v < n; v++ {
		r := find(v)
		size[r]++
		largest = max(largest, size[r])
	}
	return len(size), largest
}

// active lists the vertices with at least one out-edge: sources drawn
// from it start a real traversal rather than answering from an
// isolated vertex.
func active(g *graph.CSR) []int32 {
	var out []int32
	for v := int32(0); v < g.NumVertices(); v++ {
		if g.OutDegree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// makeQueries builds the workload's seeded query pool and its oracle
// fingerprints.
func makeQueries(w *workload, seed uint64, gs map[string]*graph.CSR) ([]query, error) {
	r := rng.NewXoshiro256(seed ^ 0x5eed0f0e1ea5e5)
	pick := func(xs []int32) int32 { return xs[r.Uint64n(uint64(len(xs)))] }
	var qs []query
	switch w.mix {
	case "full":
		// Full traversals of the giant component: a source whose reach
		// is small would time a trivial search, not the kernel.
		g := gs[w.graphs[0].Name]
		act := active(g)
		for tries := 0; len(qs) < w.pool; tries++ {
			if tries == 100*w.pool {
				return nil, fmt.Errorf("%s: too few sources reach half the graph", w.graphs[0].Name)
			}
			src := pick(act)
			dist := graph.ReferenceBFS(g, src)
			fp := fullPrint(g, dist)
			if fp.Reached < int64(g.NumVertices())/2 {
				continue
			}
			qs = append(qs, query{Kind: "full", Graph: w.graphs[0].Name, Src: src, Want: fp})
		}
	case "st":
		g := gs[w.graphs[0].Name]
		act := active(g)
		for len(qs) < w.pool {
			src, dst := pick(act), pick(act)
			dist := graph.ReferenceBFS(g, src)
			fp := fingerprint{Dist: dist[dst]}
			if d := dist[dst]; d != graph.Unreached {
				fp.Reached = countWithin(dist, d)
			} else {
				fp.Reached, _ = graph.ReachedCount(g, dist)
			}
			qs = append(qs, query{Kind: "st", Graph: w.graphs[0].Name, Src: src, Dst: dst, Want: fp})
		}
	case "bfsload":
		// The bfsload default mix, spread uniformly over the graphs, in
		// shuffled blocks that hold every (kind, graph) pair in exact
		// proportion: the seed picks vertices and order, not the mix.
		weights := []struct {
			kind string
			n    int
		}{{"st", 40}, {"khop", 25}, {"full", 20}, {"components", 5}, {"ecc", 10}}
		acts := map[string][]int32{}
		comps := map[string]fingerprint{}
		for name, g := range gs {
			acts[name] = active(g)
			c, l := components(g)
			comps[name] = fingerprint{Comps: c, Largest: l}
		}
		var block []query
		for _, wt := range weights {
			for i := 0; i < wt.n*len(w.graphs); i++ {
				block = append(block, query{Kind: wt.kind, Graph: w.graphs[i%len(w.graphs)].Name})
			}
		}
		for len(qs) < w.pool {
			for i := len(block) - 1; i > 0; i-- {
				j := int(r.Uint64n(uint64(i + 1)))
				block[i], block[j] = block[j], block[i]
			}
			qs = append(qs, block...)
		}
		for i := range qs {
			q := &qs[i]
			name := q.Graph
			g := gs[name]
			if q.Kind == "components" {
				q.Want = comps[name]
				continue
			}
			q.Src = pick(acts[name])
			dist := graph.ReferenceBFS(g, q.Src)
			switch q.Kind {
			case "st":
				q.Dst = pick(acts[name])
				q.Want.Dist = dist[q.Dst]
				if d := dist[q.Dst]; d != graph.Unreached {
					q.Want.Reached = countWithin(dist, d)
				} else {
					q.Want.Reached, _ = graph.ReachedCount(g, dist)
				}
			case "khop":
				q.K = 1 + int32(r.Uint64n(4)) // bfsload's default -kmax 4
				q.Want.Reached = countWithin(dist, q.K)
			case "full", "ecc":
				q.Want = fullPrint(g, dist)
			}
		}
	default:
		return nil, fmt.Errorf("unknown mix %q", w.mix)
	}
	return qs, nil
}

// generateInputs is the -gen child: it writes one cache entry. It runs
// in its own process so that neither the generator's edge lists nor
// the oracle's arrays count toward the measured process's peak RSS.
func generateInputs(w *workload, seed uint64, dir string) error {
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	in := inputs{Workload: w.name, Seed: seed}
	gs := map[string]*graph.CSR{}
	for i, spec := range w.graphs {
		g, err := spec.generate(seed + uint64(i))
		if err != nil {
			return fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		gs[spec.Name] = g
		file := spec.Name + ".bin2"
		f, err := os.Create(filepath.Join(tmp, file))
		if err != nil {
			return err
		}
		if err := mmio.WriteBinaryV2(f, g); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", file, err)
		}
		// Write the pages back now. Left dirty, the kernel would write
		// them back ~30 s later, during the measured run, and cleaning
		// pages the program has mapped is charged to the program: runs
		// that generated their inputs would differ from cached ones.
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("sync %s: %w", file, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(filepath.Join(tmp, file))
		if err != nil {
			return err
		}
		in.Graphs = append(in.Graphs, graphFile{Name: spec.Name, File: file, Bytes: st.Size(),
			Vertices: g.NumVertices(), Edges: g.NumEdges()})
	}
	qs, err := makeQueries(w, seed, gs)
	if err != nil {
		return err
	}
	in.Queries = qs
	b, err := json.Marshal(&in)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "inputs.json"), b, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// cacheKey names a cache entry. It hashes the input definition too, so
// changing a workload's graphs or query pool never reuses stale inputs.
func (w *workload) cacheKey(seed uint64) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v|%s|%d", w.graphs, w.mix, w.pool)
	return fmt.Sprintf("%s-%08x-seed%d", w.name, h.Sum32(), seed)
}

// cacheBudget bounds the input cache on disk; the least recently used
// entries go first. One kernel-rmat20 entry is ~72 MB.
const cacheBudget = 2 << 30

// loadInputs returns the cached inputs for (workload, seed), generating
// them in a child process on a miss.
func loadInputs(w *workload, seed uint64, work, self string) (*inputs, error) {
	root := filepath.Join(work, "inputs")
	dir := filepath.Join(root, w.cacheKey(seed))
	manifest := filepath.Join(dir, "inputs.json")
	var genS float64
	if _, err := os.Stat(manifest); err != nil {
		t0 := time.Now()
		cmd := exec.Command(self, "-gen", "-work", work, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		genS = time.Since(t0).Seconds()
	}
	b, err := os.ReadFile(manifest)
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, genS: genS}
	if err := json.Unmarshal(b, in); err != nil {
		return nil, fmt.Errorf("%s: %w", manifest, err)
	}
	now := time.Now()
	_ = os.Chtimes(manifest, now, now) // LRU stamp; a failure only ages the entry
	trimCache(root, dir)
	return in, nil
}

// trimCache evicts least recently used entries beyond cacheBudget,
// never the one in use.
func trimCache(root, keep string) {
	type ent struct {
		dir   string
		used  time.Time
		bytes int64
	}
	var ents []ent
	var total int64
	dirs, _ := filepath.Glob(filepath.Join(root, "*"))
	for _, d := range dirs {
		st, err := os.Stat(filepath.Join(d, "inputs.json"))
		if err != nil {
			continue
		}
		e := ent{dir: d, used: st.ModTime()}
		files, _ := filepath.Glob(filepath.Join(d, "*"))
		for _, f := range files {
			if fi, err := os.Stat(f); err == nil {
				e.bytes += fi.Size()
			}
		}
		total += e.bytes
		ents = append(ents, e)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].used.Before(ents[j].used) })
	for _, e := range ents {
		if total <= cacheBudget {
			return
		}
		if e.dir == keep {
			continue
		}
		if os.RemoveAll(e.dir) == nil {
			total -= e.bytes
		}
	}
}
