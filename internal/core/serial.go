package core

import (
	"context"

	"optibfs/internal/graph"
	"optibfs/internal/stats"
)

// serialEngine backs sbfs, the serial array-queue BFS used as the
// paper's single-thread baseline. It deliberately shares none of the
// parallel state machinery — keeping the serial baseline an independent
// oracle — but applies the same pooling discipline as the parallel
// engines: arrays allocated once, the visited set invalidated by an
// epoch bump, the queue reused by capacity, and stale entries
// normalized during the result pass.
type serialEngine struct {
	g          *graph.CSR
	opt        Options
	dist       []int32
	parent     []int32
	epoch      []uint32
	cur        uint32
	queue      []int32
	levelSizes []int64
	res        Result
}

func newSerialEngine(g *graph.CSR, opt Options) *serialEngine {
	n := g.NumVertices()
	e := &serialEngine{
		g:     g,
		opt:   opt,
		dist:  make([]int32, n),
		epoch: make([]uint32, n),
		queue: make([]int32, 0, 1024),
	}
	for i := range e.dist {
		e.dist[i] = graph.Unreached
	}
	if opt.TrackParents {
		e.parent = make([]int32, n)
		for i := range e.parent {
			e.parent[i] = -1
		}
	}
	return e
}

// run walks the queue from src. The walk terminates at exactly the
// point the parallel barriers do — on the first pop whose depth would
// open a level past the goal — so the oracle stays bit-identical to the
// parallel engines' closed levels under truncation too.
func (e *serialEngine) run(ctx context.Context, src int32, goal Goal) (*Result, error) {
	e.cur++
	if e.cur == 0 {
		// See state.beginRun: full sweep on uint32 wraparound only.
		for i := range e.epoch {
			e.epoch[i] = 0
		}
		e.cur = 1
	}
	cur := e.cur
	g, dist, parent, epoch := e.g, e.dist, e.parent, e.epoch
	dist[src] = 0
	if parent != nil {
		parent[src] = src
	}
	epoch[src] = cur
	var c stats.Counters
	queue := append(e.queue[:0], src)
	var levels int32
	truncated := false
	target, maxDepth := goal.TargetVertex(), goal.MaxDepth
	for head := 0; head < len(queue); head++ {
		if ctx != nil && head&4095 == 0 && ctx.Err() != nil {
			break
		}
		u := queue[head]
		du := dist[u]
		// Goal checks mirror the parallel barrier predicate (see
		// state.goalDone): stop before popping the first vertex whose
		// level the goal closes, so `levels` — and therefore every
		// closed level of the histogram — matches the parallel engines'
		// truncation point exactly. The target check fires on the first
		// pop at the target's own depth: by then every shallower vertex
		// has been popped, so all distances <= dist[target] are final.
		if maxDepth > 0 && du >= maxDepth {
			truncated = true
			break
		}
		if target >= 0 && epoch[target] == cur && du >= dist[target] {
			truncated = true
			break
		}
		if du+1 > levels {
			levels = du + 1
		}
		c.VerticesPopped++
		nb := g.Neighbors(u)
		c.EdgesScanned += int64(len(nb))
		for _, w := range nb {
			if epoch[w] != cur {
				dist[w] = du + 1
				if parent != nil {
					parent[w] = u
				}
				epoch[w] = cur
				c.Discovered++
				queue = append(queue, w)
			}
		}
	}
	e.queue = queue
	if cap(e.levelSizes) < int(levels) {
		e.levelSizes = make([]int64, levels)
	} else {
		e.levelSizes = e.levelSizes[:levels]
		for i := range e.levelSizes {
			e.levelSizes[i] = 0
		}
	}
	res := &e.res
	*res = Result{
		Dist:       dist,
		Parent:     parent,
		Levels:     levels,
		Truncated:  truncated,
		Workers:    1,
		Counters:   c,
		Pops:       c.VerticesPopped,
		LevelSizes: e.levelSizes,
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if epoch[v] != cur {
			dist[v] = graph.Unreached
			if parent != nil {
				parent[v] = -1
			}
			continue
		}
		res.Reached++
		res.EdgesTraversed += g.OutDegree(v)
		// A cancelled run can leave discovered-but-unpopped vertices
		// one level beyond the popped maximum; they count toward the
		// partial result's Reached but not its level histogram.
		if d := dist[v]; int(d) < len(res.LevelSizes) {
			res.LevelSizes[d]++
		}
	}
	return res, nil
}

func (e *serialEngine) reseed(seed uint64) { e.opt.Seed = seed }
func (e *serialEngine) setChaos(ChaosHook) {}
func (e *serialEngine) close()             {}
