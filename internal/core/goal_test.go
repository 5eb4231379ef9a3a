package core

import (
	"context"
	"testing"

	"optibfs/internal/gen"
)

func TestGoalValidation(t *testing.T) {
	g, err := gen.Path(16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, BFSWL, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunGoal(context.Background(), 0, GoalTo(99)); err == nil {
		t.Fatal("out-of-range RunGoal target accepted")
	}
	if _, err := e.RunGoal(context.Background(), 0, Goal{Target: -1}); err == nil {
		t.Fatal("negative RunGoal target encoding accepted")
	}
	if _, err := e.RunGoal(context.Background(), 0, Goal{MaxDepth: -2}); err == nil {
		t.Fatal("negative RunGoal depth accepted")
	}
	// Vertex 0 must be addressable as a target (the +1 encoding's
	// entire point).
	res, err := e.RunGoal(context.Background(), 5, GoalTo(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Dist[0] != 5 {
		t.Fatalf("target vertex 0: Truncated=%v dist=%d, want true/5", res.Truncated, res.Dist[0])
	}
}
