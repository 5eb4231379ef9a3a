package main

import (
	"os"
	"testing"
)

func TestGraph500SmallRun(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if err := run(null, 8, 8, "BFS_WSL", 3, 4, 1, false, "Lonestar", "", false, false); err != nil {
		t.Fatal(err)
	}
}

func TestGraph500SkipValidation(t *testing.T) {
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer null.Close()
	if err := run(null, 7, 4, "sbfs", 2, 1, 1, true, "Trestles", "", false, false); err != nil {
		t.Fatal(err)
	}
}

// TestGraph500Reorder runs the benchmark procedure with relabeling on;
// the per-round ValidateDistances/ValidateParents calls run against the
// original graph, so a pass proves the relabeled searches correct.
func TestGraph500Reorder(t *testing.T) {
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer null.Close()
	for _, mode := range []string{"degree", "bfs"} {
		if err := run(null, 8, 8, "BFS_WSL", 3, 4, 1, false, "Lonestar", mode, false, false); err != nil {
			t.Fatalf("reorder %q: %v", mode, err)
		}
	}
}

// TestGraph500ST runs the paired s-t procedure: each round's goal run
// self-checks its target distance against the full BFS, so a pass means
// early termination settled the target exactly.
func TestGraph500ST(t *testing.T) {
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer null.Close()
	if err := run(null, 8, 8, "BFS_WSL", 3, 4, 1, false, "Lonestar", "", false, true); err != nil {
		t.Fatal(err)
	}
	if err := run(null, 8, 8, "DirectionOptimizing", 3, 4, 1, false, "Lonestar", "", false, true); err != nil {
		t.Fatalf("DirectionOptimizing -st: %v", err)
	}
	if err := run(null, 8, 8, "Baseline1(bag)", 2, 1, 1, false, "Lonestar", "", false, true); err == nil {
		t.Fatal("baseline accepted -st")
	}
}

func TestGraph500Errors(t *testing.T) {
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer null.Close()
	if err := run(null, 0, 8, "BFS_WSL", 3, 1, 1, false, "Lonestar", "", false, false); err == nil {
		t.Fatal("accepted scale 0")
	}
	if err := run(null, 8, 8, "BFS_WSL", 0, 1, 1, false, "Lonestar", "", false, false); err == nil {
		t.Fatal("accepted 0 rounds")
	}
	if err := run(null, 8, 8, "warp-bfs", 3, 1, 1, false, "Lonestar", "", false, false); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
	if err := run(null, 8, 8, "BFS_WSL", 3, 1, 1, false, "DeepBlue", "", false, false); err == nil {
		t.Fatal("accepted unknown machine")
	}
}

func TestHarmonic(t *testing.T) {
	if h := harmonic(2, 1.0/4+1.0/12); h != 6 {
		t.Fatalf("harmonic = %g, want 6", h)
	}
	if h := harmonic(3, 0); h != 0 {
		t.Fatalf("harmonic(0) = %g", h)
	}
}

func TestFmtTEPS(t *testing.T) {
	if s := fmtTEPS(2.5e9); s != "2.50GTEPS" {
		t.Fatalf("%q", s)
	}
	if s := fmtTEPS(0); s != "n/a" {
		t.Fatalf("%q", s)
	}
}
