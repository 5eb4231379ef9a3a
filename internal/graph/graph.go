// Package graph provides the compressed-sparse-row (CSR) graph
// representation shared by every BFS algorithm in this repository,
// along with builders, transforms, and validation utilities.
//
// Vertices are identified by int32 (the paper's graphs have at most
// 10M vertices; int32 halves the memory traffic of the edge array,
// which dominates BFS bandwidth). Edge offsets are int64 so graphs
// with more than 2^31 edges — e.g. the paper's RMAT graph with 1B
// edges — remain representable.
package graph

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Unreached marks a vertex not reached by a BFS in distance arrays.
const Unreached int32 = -1

// CSR is a directed graph in compressed sparse row form.
// The out-neighbors of vertex v are Edges[Offsets[v]:Offsets[v+1]].
//
// CSR values are immutable by convention once built: every BFS in this
// repository only reads them, so a single CSR can be shared by any
// number of concurrent searches.
type CSR struct {
	// Offsets has length NumVertices+1; Offsets[0] == 0 and
	// Offsets[NumVertices] == NumEdges.
	Offsets []int64
	// Edges holds destination vertices grouped by source.
	Edges []int32

	// Transpose cache. CSRs are immutable once built, so the reverse
	// graph is computed at most once and shared by every caller
	// (reorder passes and the bottom-up kernel both want it).
	// CSR values must not be copied once Transpose has been called; the
	// repository always passes *CSR.
	tmu       sync.Mutex
	transpose *CSR
}

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int32 {
	if len(g.Offsets) == 0 {
		return 0
	}
	return int32(len(g.Offsets) - 1)
}

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.Edges)) }

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v int32) int64 {
	return g.Offsets[v+1] - g.Offsets[v]
}

// Neighbors returns the out-neighbor slice of v. The slice aliases the
// graph's storage and must not be modified.
func (g *CSR) Neighbors(v int32) []int32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// AvgDegree returns the mean out-degree, or 0 for an empty graph.
func (g *CSR) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// MaxDegree returns the maximum out-degree and one vertex attaining it.
func (g *CSR) MaxDegree() (deg int64, vertex int32) {
	for v := int32(0); v < g.NumVertices(); v++ {
		if d := g.OutDegree(v); d > deg {
			deg, vertex = d, v
		}
	}
	return deg, vertex
}

// Validate checks structural invariants of the CSR arrays.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.Offsets) == 0 {
		if len(g.Edges) != 0 {
			return errors.New("graph: empty offsets with non-empty edges")
		}
		return nil
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: Offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := int32(0); v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: Offsets not monotone at vertex %d", v)
		}
	}
	if g.Offsets[n] != int64(len(g.Edges)) {
		return fmt.Errorf("graph: Offsets[n] = %d, want %d", g.Offsets[n], len(g.Edges))
	}
	for i, w := range g.Edges {
		if w < 0 || w >= n {
			return fmt.Errorf("graph: edge %d target %d out of range [0,%d)", i, w, n)
		}
	}
	return nil
}

// String summarizes the graph for logs.
func (g *CSR) String() string {
	return fmt.Sprintf("CSR{n=%d m=%d avg=%.2f}", g.NumVertices(), g.NumEdges(), g.AvgDegree())
}

// Transpose returns the reverse graph (every edge u->v becomes v->u).
// The result is computed on first call — counting and scatter passes
// run in parallel over contiguous edge chunks — and cached on the
// receiver, so repeated callers (reorder passes, the bottom-up kernel)
// share one copy. The cached CSR is immutable like any other and its
// in-neighbor lists are in ascending source order, identical to the
// serial algorithm's output.
func (g *CSR) Transpose() *CSR {
	g.tmu.Lock()
	defer g.tmu.Unlock()
	if g.transpose == nil {
		g.transpose = g.transposeUncached()
	}
	return g.transpose
}

// transposeWorkers picks the counting/scatter parallelism: bounded by
// GOMAXPROCS and by the per-worker count-row memory (4 bytes × n each,
// capped at 256 MiB total so huge graphs don't double their footprint
// during a build), with small graphs staying serial — the fork/join
// overhead exceeds the scan below ~128k edges.
func (g *CSR) transposeWorkers() int {
	const minEdgesParallel = 1 << 17
	const rowBudgetBytes = 256 << 20
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	// The scatter cursors are int32 rows; keep the parallel path to
	// graphs whose running per-target totals cannot overflow them.
	if int64(len(g.Edges)) < minEdgesParallel || int64(len(g.Edges)) >= 1<<31 {
		return 1
	}
	if rows := rowBudgetBytes / (4 * (int64(g.NumVertices()) + 1)); rows < int64(w) {
		w = int(rows)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (g *CSR) transposeUncached() *CSR {
	n := g.NumVertices()
	m := int64(len(g.Edges))
	offsets := make([]int64, n+1)
	workers := g.transposeWorkers()
	if workers == 1 {
		for _, w := range g.Edges {
			offsets[w+1]++
		}
		for v := int32(0); v < n; v++ {
			offsets[v+1] += offsets[v]
		}
		edges := make([]int32, m)
		cursor := make([]int64, n)
		copy(cursor, offsets[:n])
		for u := int32(0); u < n; u++ {
			for _, w := range g.Neighbors(u) {
				edges[cursor[w]] = u
				cursor[w]++
			}
		}
		return &CSR{Offsets: offsets, Edges: edges}
	}

	// Chunk the edge array contiguously: worker k owns edge indices
	// [bounds[k], bounds[k+1]). Chunks may split a vertex's list; the
	// scatter pass recovers the source of the first edge by binary
	// search and walks forward from there.
	bounds := make([]int64, workers+1)
	for k := 0; k <= workers; k++ {
		bounds[k] = m * int64(k) / int64(workers)
	}

	// Pass 1 (parallel): per-worker in-degree count rows.
	counts := make([][]int32, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		counts[k] = make([]int32, n)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			row := counts[k]
			for _, w := range g.Edges[bounds[k]:bounds[k+1]] {
				row[w]++
			}
		}(k)
	}
	wg.Wait()

	// Serial prefix pass: totals become offsets, and each count row is
	// rewritten in place into the worker's starting cursor per target
	// (offset of the target plus everything earlier workers will
	// scatter there). Earlier chunks hold earlier edges, so the output
	// slot order per target matches the serial scan exactly.
	for v := int32(0); v < n; v++ {
		var total int64
		for k := 0; k < workers; k++ {
			c := int64(counts[k][v])
			counts[k][v] = int32(total) // offset added during scatter
			total += c
		}
		offsets[v+1] = offsets[v] + total
	}

	// Pass 2 (parallel): deterministic scatter. Workers write disjoint
	// slots (disjoint cursor ranges per target), so no synchronization
	// is needed beyond the join.
	edges := make([]int32, m)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := bounds[k], bounds[k+1]
			if lo == hi {
				return
			}
			row := counts[k]
			// First source whose edge list intersects [lo, hi).
			u := int32(upperBound(g.Offsets, lo) - 1)
			for e := lo; e < hi; e++ {
				for g.Offsets[u+1] <= e {
					u++
				}
				w := g.Edges[e]
				edges[offsets[w]+int64(row[w])] = u
				row[w]++
			}
		}(k)
	}
	wg.Wait()
	return &CSR{Offsets: offsets, Edges: edges}
}

// upperBound returns the smallest index i with a[i] > x, assuming a is
// sorted ascending (a CSR offsets array).
func upperBound(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DegreeHistogram returns counts of vertices per out-degree, capped:
// index len-1 accumulates all degrees >= len-1.
func (g *CSR) DegreeHistogram(buckets int) []int64 {
	if buckets <= 0 {
		buckets = 1
	}
	h := make([]int64, buckets)
	for v := int32(0); v < g.NumVertices(); v++ {
		d := g.OutDegree(v)
		if d >= int64(buckets) {
			d = int64(buckets - 1)
		}
		h[d]++
	}
	return h
}

// CountAtLeastDegree returns how many vertices have out-degree >= k.
func (g *CSR) CountAtLeastDegree(k int64) int64 {
	var c int64
	for v := int32(0); v < g.NumVertices(); v++ {
		if g.OutDegree(v) >= k {
			c++
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep (edges whose
// endpoints are both kept), with vertices renumbered densely in keep's
// order, plus the mapping from new ids back to original ids.
// Duplicate entries in keep are rejected.
func (g *CSR) InducedSubgraph(keep []int32) (*CSR, []int32, error) {
	newID := make(map[int32]int32, len(keep))
	for i, v := range keep {
		if v < 0 || v >= g.NumVertices() {
			return nil, nil, fmt.Errorf("graph: kept vertex %d out of range", v)
		}
		if _, dup := newID[v]; dup {
			return nil, nil, fmt.Errorf("graph: vertex %d kept twice", v)
		}
		newID[v] = int32(i)
	}
	var edges []Edge
	for i, v := range keep {
		for _, w := range g.Neighbors(v) {
			if nw, ok := newID[w]; ok {
				edges = append(edges, Edge{Src: int32(i), Dst: nw})
			}
		}
	}
	sub, err := FromEdges(int32(len(keep)), edges, BuildOptions{})
	if err != nil {
		return nil, nil, err
	}
	back := append([]int32(nil), keep...)
	return sub, back, nil
}
