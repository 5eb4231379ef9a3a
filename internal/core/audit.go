package core

import (
	"errors"
	"fmt"

	"optibfs/internal/graph"
)

// Violation is one invariant the audit contract found broken.
type Violation struct {
	// Invariant is a stable short name for the broken invariant.
	Invariant string `json:"invariant"`
	// Detail localizes the violation (vertex, level, counter values).
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// AuditError joins violations into one error, or returns nil when
// there are none.
func AuditError(vs []Violation) error {
	errs := make([]error, len(vs))
	for i, v := range vs {
		errs[i] = errors.New(v.String())
	}
	return errors.Join(errs...)
}

type violations []Violation

func (vs *violations) add(invariant, format string, args ...any) {
	*vs = append(*vs, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// AuditAnswer checks the answer fields of a finished run — Dist,
// Parent, Levels, Truncated, Reached and EdgesTraversed — against the
// serial oracle under goal. want must be graph.ReferenceBFS(g, src),
// or nil to have it computed here (pass it in when auditing many runs
// on the same graph). Returns nil when every invariant holds; the
// invariants are tabled in DESIGN.md ("The audit contract").
//
// The stop point (Levels, Truncated) is derived once from the oracle:
// an unbounded goal stops at frontier exhaustion, Levels = ecc+1; a
// bounded goal stops at whichever of target and depth bound fires
// first. An unbounded run must match the oracle everywhere; a bounded
// run is exact up to and including level Levels (the settled final
// frontier) and Unreached beyond, and its parents are checked over
// that settled prefix.
func AuditAnswer(g *graph.CSR, src int32, want []int32, goal Goal, res *Result) []Violation {
	var vs violations
	if want == nil {
		want = graph.ReferenceBFS(g, src)
	}
	levels, truncated := stopPoint(want, goal)
	if res.Levels != levels {
		vs.add("goal-levels-match", "Levels = %d, oracle stop point %d (goal %+v)", res.Levels, levels, goal)
	}
	if res.Truncated != truncated {
		vs.add("goal-truncation-honest", "Truncated = %v, want %v (goal %+v)", res.Truncated, truncated, goal)
	}
	switch {
	case len(res.Dist) != len(want):
		vs.add("distances-match-oracle", "len(Dist) = %d, oracle %d", len(res.Dist), len(want))
		return vs
	case goal.Bounded():
		for v, d := range want {
			if d != graph.Unreached && d <= levels {
				if res.Dist[v] != d {
					vs.add("goal-distances-exact", "dist[%d] = %d, oracle %d at closed level", v, res.Dist[v], d)
					break
				}
			} else if res.Dist[v] != graph.Unreached {
				vs.add("goal-distances-exact", "dist[%d] = %d, want Unreached past level %d", v, res.Dist[v], levels)
				break
			}
		}
	default:
		if err := graph.EqualDistances(res.Dist, want); err != nil {
			vs.add("distances-match-oracle", "%v", err)
		}
		if err := graph.ValidateDistances(g, src, res.Dist); err != nil {
			vs.add("distances-structurally-valid", "%v", err)
		}
		if reached, edges := graph.ReachedCount(g, want); res.Reached != reached || res.EdgesTraversed != edges {
			vs.add("reach-matches-oracle", "Reached/EdgesTraversed = %d/%d, oracle %d/%d",
				res.Reached, res.EdgesTraversed, reached, edges)
		}
	}
	// ValidateParents judges each settled vertex against its own
	// distance only, so on a truncated Dist it checks exactly the
	// settled prefix.
	if res.Parent != nil {
		if err := graph.ValidateParents(g, src, res.Dist, res.Parent); err != nil {
			vs.add("parents-valid", "%v", err)
		}
	}
	return vs
}

// Audit is AuditAnswer plus the work-accounting invariants of the
// optimistic protocols:
//
//	discovered-conservation  Reached−1 ≤ Σ Discovered ≤ Pops−1: every
//	                         reached vertex but the source was discovered,
//	                         and every discovery's queue entry was popped.
//	                         The slack is the benign duplicate-discovery
//	                         count, never negative.
//	pops-cover-reached       Pops ≥ Reached: races add pops, never remove them.
//	level-sizes-account      Σ LevelSizes counts exactly the vertices at
//	                         closed levels (Dist < Levels).
//
// A bottom-up level settles vertices without popping them, and a goal
// may stop at a barrier with discovered final-frontier entries
// unpopped, so hybrid runs (Counters.BottomUpLevels > 0) and bounded
// goals drop pops-cover-reached and the upper conservation bound.
func Audit(g *graph.CSR, src int32, want []int32, goal Goal, res *Result) []Violation {
	vs := violations(AuditAnswer(g, src, want, goal, res))
	relaxed := res.Counters.BottomUpLevels > 0 || goal.Bounded()
	if got := res.Counters.Discovered; got < res.Reached-1 {
		vs.add("discovered-conservation", "Σ Discovered = %d < Reached−1 = %d: some vertex was reached but never discovered", got, res.Reached-1)
	} else if got > res.Pops-1 && !relaxed {
		vs.add("discovered-conservation", "Σ Discovered = %d > Pops−1 = %d: some queue entry was appended but never popped", got, res.Pops-1)
	}
	if res.Pops < res.Reached && !relaxed {
		vs.add("pops-cover-reached", "Pops = %d < Reached = %d: some vertex was never popped", res.Pops, res.Reached)
	}
	var sizes, closed int64
	for _, s := range res.LevelSizes {
		sizes += s
	}
	for _, d := range res.Dist {
		if d != graph.Unreached && d < res.Levels {
			closed++
		}
	}
	if sizes != closed {
		vs.add("level-sizes-account", "Σ LevelSizes = %d, want %d closed-level vertices", sizes, closed)
	}
	return vs
}

// stopPoint derives from the full oracle where a run under goal must
// stop: the closed-level count and whether the run counts as
// truncated. Whichever goal fires first wins; a depth bound truncates
// only when a vertex at that depth exists, and a target only when it
// is reachable.
func stopPoint(want []int32, goal Goal) (levels int32, truncated bool) {
	ecc := graph.Eccentricity(want)
	levels = ecc + 1
	if d := goal.MaxDepth; d > 0 && ecc >= d {
		levels, truncated = d, true
	}
	if tv := goal.TargetVertex(); tv >= 0 && tv < int32(len(want)) {
		if dt := want[tv]; dt != graph.Unreached && dt < levels {
			levels, truncated = dt, true
		}
	}
	return levels, truncated
}

// AsResult views the lane's answer fields as a Result, the shape the
// audit contract takes.
func (lr *LaneResult) AsResult() *Result {
	return &Result{
		Dist: lr.Dist, Parent: lr.Parent, Levels: lr.Levels, Truncated: lr.Truncated,
		Reached: lr.Reached, EdgesTraversed: lr.EdgesTraversed,
	}
}
