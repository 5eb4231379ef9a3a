package main

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/serve"
)

// TestGoalParamValidation is the table for the goal-directed query
// params: every bad combination dies with a 400 before any engine
// runs, with the error body naming the offending parameter.
func TestGoalParamValidation(t *testing.T) {
	_, ts := testDaemon(t)
	postJSON(t, ts.URL+"/load?gen=er&n=256&m=1024&seed=4", "", http.StatusOK)

	cases := []struct {
		name  string
		query string
	}{
		{"dst out of range", "src=0&dst=256"},
		{"dst negative", "src=0&dst=-1"},
		{"dst garbage", "src=0&dst=banana"},
		{"k zero", "src=0&k=0"},
		{"k negative", "src=0&k=-3"},
		{"k garbage", "src=0&k=x"},
		{"dst with full", "src=0&dst=5&full=1"},
		{"unknown kind", "src=0&kind=pagerank"},
		{"ecc bad src", "kind=ecc&src=999"},
		{"ecc missing src", "kind=ecc"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := getJSON(t, ts.URL+"/query?"+c.query, http.StatusBadRequest)
			if m["error"] == nil {
				t.Fatalf("%s: 400 without an error field: %v", c.query, m)
			}
		})
	}
}

// TestGoalQueries: dst= and k= terminate early, report truncated, and
// self-validate against the oracle's closed levels; kind=components
// and kind=ecc answer from the analysis layer.
func TestGoalQueries(t *testing.T) {
	_, ts := testDaemon(t)
	// A 64-vertex path: distances are the vertex ids, so every
	// projection is predictable.
	var edges string
	for i := 0; i < 63; i++ {
		edges += fmt.Sprintf("%d %d\n", i, i+1)
	}
	postJSON(t, ts.URL+"/load", edges, http.StatusOK)

	// s–t: terminate at dst's level, exact distance, truncated.
	q := getJSON(t, ts.URL+"/query?src=0&dst=5&validate=1", http.StatusOK)
	if q["dist"].(float64) != 5 || q["truncated"] != true || q["valid"] != true {
		t.Fatalf("dst query: %v", q)
	}
	if q["levels"].(float64) != 5 {
		t.Fatalf("dst query closed levels = %v, want 5", q["levels"])
	}

	// Path reconstruction off the truncated BFS tree.
	p := getJSON(t, ts.URL+"/query?src=0&dst=4&path=1", http.StatusOK)
	path := p["path"].([]any)
	if len(path) != 5 {
		t.Fatalf("path = %v, want 0..4", path)
	}
	for i, v := range path {
		if v.(float64) != float64(i) {
			t.Fatalf("path[%d] = %v, want %d", i, v, i)
		}
	}

	// k-hop: k closed levels, deeper vertices unreported.
	k := getJSON(t, ts.URL+"/query?src=0&k=3&validate=1&full=1", http.StatusOK)
	if k["truncated"] != true || k["valid"] != true || k["levels"].(float64) != 3 {
		t.Fatalf("k query: %v", k)
	}
	dist := k["dist_all"].([]any)
	if dist[3].(float64) != 3 || dist[4].(float64) == 4 {
		t.Fatalf("k=3 dist_all: settled %v at 3, %v at 4", dist[3], dist[4])
	}

	// dst+k combined: whichever fires first wins (here the depth bound).
	dk := getJSON(t, ts.URL+"/query?src=0&dst=40&k=2", http.StatusOK)
	if dk["truncated"] != true || dk["levels"].(float64) != 2 {
		t.Fatalf("dst+k query: %v", dk)
	}

	// An unbounded query afterward is not truncated.
	u := getJSON(t, ts.URL+"/query?src=0&validate=1", http.StatusOK)
	if _, ok := u["truncated"]; ok {
		t.Fatalf("unbounded query truncated: %v", u)
	}

	// Analysis kinds.
	comp := getJSON(t, ts.URL+"/query?kind=components", http.StatusOK)
	if comp["components"].(float64) != 1 || comp["largest"].(float64) != 64 {
		t.Fatalf("components: %v", comp)
	}
	ecc := getJSON(t, ts.URL+"/query?kind=ecc&src=0", http.StatusOK)
	if ecc["ecc"].(float64) != 63 {
		t.Fatalf("ecc: %v", ecc)
	}
}

// TestValidateAnswerRejectsWrongStopPoint: ?validate=1 must judge the
// goal's stop point, not only the levels the answer claims to have
// closed. A serial k=1 answer checked as k=3 stopped two levels early,
// and an answer whose Truncated flag is flipped lies about why it
// stopped; both must be rejected.
func TestValidateAnswerRejectsWrongStopPoint(t *testing.T) {
	g, err := gen.Path(64)
	if err != nil {
		t.Fatal(err)
	}
	k1 := core.Goal{MaxDepth: 1}
	res, err := core.RunGoal(context.Background(), g, 0, core.Serial, core.Options{TrackParents: true}, k1)
	if err != nil {
		t.Fatal(err)
	}
	ans := &serve.Answer{
		Dist: res.Dist, Parent: res.Parent, Levels: res.Levels, Truncated: res.Truncated,
		Reached: res.Reached, EdgesTraversed: res.EdgesTraversed,
	}
	if err := validateAnswer(g, 0, k1, ans); err != nil {
		t.Fatalf("clean k=1 answer rejected: %v", err)
	}
	t.Run("early-stop", func(t *testing.T) {
		if err := validateAnswer(g, 0, core.Goal{MaxDepth: 3}, ans); err == nil {
			t.Fatal("k=1 answer accepted as k=3")
		}
	})
	t.Run("false-truncated", func(t *testing.T) {
		flipped := *ans
		flipped.Truncated = false
		if err := validateAnswer(g, 0, k1, &flipped); err == nil {
			t.Fatal("answer with a flipped Truncated flag accepted")
		}
	})
}
