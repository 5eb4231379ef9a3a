package chaos

import (
	"strings"
	"testing"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

// goodRun produces a correct Result to tamper with.
func goodRun(t *testing.T) (*graph.CSR, *core.Result) {
	t.Helper()
	g, err := gen.ErdosRenyi(500, 3000, 7, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(g, 0, core.BFSWL, core.Options{Workers: 4, Seed: 1, TrackParents: true})
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

// expectViolation asserts the named invariant is among the findings.
func expectViolation(t *testing.T, vs []core.Violation, invariant string) {
	t.Helper()
	for _, v := range vs {
		if v.Invariant == invariant {
			if v.Detail == "" {
				t.Fatalf("%s reported without detail", invariant)
			}
			return
		}
	}
	t.Fatalf("invariant %q not reported; got %v", invariant, vs)
}

func TestAuditCleanRunPasses(t *testing.T) {
	g, res := goodRun(t)
	if vs := core.Audit(g, 0, nil, core.Goal{}, res); len(vs) != 0 {
		t.Fatalf("clean run reported violations: %v", vs)
	}
}

func TestAuditCatchesWrongDistance(t *testing.T) {
	g, res := goodRun(t)
	bad := *res
	bad.Dist = append([]int32(nil), res.Dist...)
	// Find a reached non-source vertex and corrupt its level.
	for v := int32(1); v < g.NumVertices(); v++ {
		if bad.Dist[v] > 0 {
			bad.Dist[v] += 3
			break
		}
	}
	vs := core.Audit(g, 0, nil, core.Goal{}, &bad)
	expectViolation(t, vs, "distances-match-oracle")
	expectViolation(t, vs, "distances-structurally-valid")
}

func TestAuditCatchesSkippedDiscovery(t *testing.T) {
	g, res := goodRun(t)
	bad := *res
	bad.Counters.Discovered = bad.Reached - 2 // one vertex reached but never discovered
	vs := core.Audit(g, 0, nil, core.Goal{}, &bad)
	expectViolation(t, vs, "discovered-conservation")
	if !strings.Contains(vs[0].Detail, "never discovered") {
		t.Fatalf("wrong side of the conservation bound: %v", vs[0])
	}
}

func TestAuditCatchesUnpoppedEntries(t *testing.T) {
	g, res := goodRun(t)
	bad := *res
	bad.Counters.Discovered = bad.Pops + 5 // entries appended but never popped
	vs := core.Audit(g, 0, nil, core.Goal{}, &bad)
	expectViolation(t, vs, "discovered-conservation")
}

func TestAuditCatchesMissedPops(t *testing.T) {
	g, res := goodRun(t)
	bad := *res
	bad.Pops = bad.Reached - 1
	expectViolation(t, core.Audit(g, 0, nil, core.Goal{}, &bad), "pops-cover-reached")
}

func TestAuditCatchesLevelSizeLeak(t *testing.T) {
	g, res := goodRun(t)
	bad := *res
	bad.LevelSizes = append([]int64(nil), res.LevelSizes...)
	bad.LevelSizes[0] = 0 // the source vanished from its level
	expectViolation(t, core.Audit(g, 0, nil, core.Goal{}, &bad), "level-sizes-account")
}

func TestAuditCatchesBadParent(t *testing.T) {
	g, res := goodRun(t)
	bad := *res
	bad.Parent = append([]int32(nil), res.Parent...)
	for v := int32(1); v < g.NumVertices(); v++ {
		if bad.Dist[v] > 1 {
			bad.Parent[v] = 0 // the source is never a valid parent at depth ≥ 2
			break
		}
	}
	expectViolation(t, core.Audit(g, 0, nil, core.Goal{}, &bad), "parents-valid")
}

func TestAuditAcceptsPrecomputedOracle(t *testing.T) {
	g, res := goodRun(t)
	want := graph.ReferenceBFS(g, 0)
	if vs := core.Audit(g, 0, want, core.Goal{}, res); len(vs) != 0 {
		t.Fatalf("violations with precomputed oracle: %v", vs)
	}
	// A wrong oracle must surface as a mismatch, proving it is used.
	want[len(want)-1]++
	if vs := core.Audit(g, 0, want, core.Goal{}, res); len(vs) == 0 {
		t.Fatal("tampered oracle not detected")
	}
}
