package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"optibfs/internal/core"
	"optibfs/internal/gen"
	"optibfs/internal/mmio"
)

func TestRunOnSuiteGraph(t *testing.T) {
	if err := run("BFS_WSL", "", "kkt-power", 4096, -1, 2, 4, 1, true, "Lonestar", false, false, "", "", false, -1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunFixedSource(t *testing.T) {
	if err := run("BFS_CL", "", "cage14", 4096, 0, 1, 2, 1, true, "Trestles", false, false, "", "", false, -1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnGraphFiles(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.ErdosRenyi(200, 1200, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}

	binPath := filepath.Join(dir, "g.bin")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmio.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run("sbfs", binPath, "", 1, 0, 1, 1, 1, true, "Lonestar", true, false, "", "", false, -1, 0); err != nil {
		t.Fatal(err)
	}

	mtxPath := filepath.Join(dir, "g.mtx")
	f, err = os.Create(mtxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmio.WriteMatrixMarket(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run("Baseline1(bag)", mtxPath, "", 1, 0, 1, 2, 1, true, "Lonestar", false, false, "", "", false, -1, 0); err != nil {
		t.Fatal(err)
	}

	edgePath := filepath.Join(dir, "g.edges")
	f, err = os.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmio.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run("BFS_EL", edgePath, "", 1, 0, 1, 2, 1, true, "Local", true, true, "", "", false, -1, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithReorder exercises -reorder end-to-end: the engine relabels
// internally, and the -validate comparison (against serial BFS on the
// ORIGINAL graph) must still pass because results are mapped back.
func TestRunWithReorder(t *testing.T) {
	for _, mode := range []string{"degree", "bfs"} {
		if err := run("BFS_WSL", "", "kkt-power", 4096, -1, 2, 4, 1, true, "Lonestar", false, false, "", mode, false, -1, 0); err != nil {
			t.Fatalf("reorder %q: %v", mode, err)
		}
	}
	if err := run("BFS_WSL", "", "kkt-power", 4096, 0, 1, 2, 1, false, "Lonestar", false, false, "", "hilbert", false, -1, 0); err == nil {
		t.Fatal("accepted unknown reorder mode")
	}
}

// TestRunGoalDirected: -dst and -k terminate early and self-validate
// against the oracle's closed levels, DirectionOptimizing included; the
// baseline runtimes refuse the flags instead of silently running to
// exhaustion.
func TestRunGoalDirected(t *testing.T) {
	if err := run("BFS_WSL", "", "kkt-power", 4096, 0, 1, 4, 1, true, "Lonestar", false, false, "", "", false, 50, 0); err != nil {
		t.Fatalf("-dst: %v", err)
	}
	if err := run("BFS_CL", "", "kkt-power", 4096, 0, 1, 4, 1, true, "Lonestar", false, false, "", "", false, -1, 3); err != nil {
		t.Fatalf("-k: %v", err)
	}
	if err := run("BFS_WSL", "", "kkt-power", 4096, 0, 1, 4, 1, true, "Lonestar", false, false, "", "", false, 50, 2); err != nil {
		t.Fatalf("-dst -k: %v", err)
	}
	if err := run("BFS_WSL", "", "kkt-power", 4096, 0, 1, 4, 1, true, "Lonestar", false, false, "", "degree", false, 50, 0); err != nil {
		t.Fatalf("reorder -dst (target must be translated): %v", err)
	}
	if err := run("DirectionOptimizing", "", "kkt-power", 4096, 0, 1, 4, 1, true, "Lonestar", false, false, "", "", false, 50, 2); err != nil {
		t.Fatalf("DirectionOptimizing -dst -k: %v", err)
	}
	if err := run("Baseline1(bag)", "", "kkt-power", 4096, 0, 1, 2, 1, false, "Lonestar", false, false, "", "", false, 5, 0); err == nil {
		t.Fatal("baseline accepted -dst")
	}
	if err := run("BFS_WSL", "", "kkt-power", 4096, 0, 1, 2, 1, false, "Lonestar", false, false, "", "", false, 1<<30, 0); err == nil {
		t.Fatal("accepted out-of-range -dst")
	}
	if err := run("BFS_WSL", "", "kkt-power", 4096, 0, 1, 2, 1, false, "Lonestar", false, false, "", "", false, -1, -2); err == nil {
		t.Fatal("accepted negative -k")
	}
}

// TestValidateRunRejectsWrongStopPoint: -validate must judge the
// goal's stop point, not only the levels the run claims to have
// closed. A serial k=1 run checked as k=3 stopped two levels early,
// and a run whose Truncated flag is flipped lies about why it
// stopped; both must be rejected.
func TestValidateRunRejectsWrongStopPoint(t *testing.T) {
	g, err := gen.Path(64)
	if err != nil {
		t.Fatal(err)
	}
	k1 := core.Goal{MaxDepth: 1}
	res, err := core.RunGoal(context.Background(), g, 0, core.Serial, core.Options{}, k1)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateRun(g, 0, k1, res); err != nil {
		t.Fatalf("clean k=1 run rejected: %v", err)
	}
	t.Run("early-stop", func(t *testing.T) {
		if err := validateRun(g, 0, core.Goal{MaxDepth: 3}, res); err == nil {
			t.Fatal("k=1 run accepted as k=3")
		}
	})
	t.Run("false-truncated", func(t *testing.T) {
		flipped := *res
		flipped.Truncated = false
		if err := validateRun(g, 0, k1, &flipped); err == nil {
			t.Fatal("run with a flipped Truncated flag accepted")
		}
	})
}

func TestRunErrors(t *testing.T) {
	if err := run("BFS_XXL", "", "cage14", 4096, 0, 1, 1, 1, false, "Lonestar", false, false, "", "", false, -1, 0); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
	if err := run("sbfs", "", "", 1, 0, 1, 1, 1, false, "Lonestar", false, false, "", "", false, -1, 0); err == nil {
		t.Fatal("accepted missing graph")
	}
	if err := run("sbfs", "/does/not/exist.bin", "", 1, 0, 1, 1, 1, false, "Lonestar", false, false, "", "", false, -1, 0); err == nil {
		t.Fatal("accepted missing file")
	}
	if err := run("sbfs", "", "cage14", 4096, 0, 1, 1, 1, false, "Cray", false, false, "", "", false, -1, 0); err == nil {
		t.Fatal("accepted unknown machine")
	}
}

// TestRunWritesTrace checks -trace produces a loadable trace_event
// file, and that the serial baseline (which records no dispatch
// events) is refused instead of silently writing an empty trace.
func TestRunWritesTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := run("BFS_WSL", "", "cage14", 4096, 0, 1, 4, 1, true, "Lonestar", false, false, path, "", false, -1, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if err := run("sbfs", "", "cage14", 4096, 0, 1, 1, 1, false, "Lonestar", false, false, filepath.Join(dir, "t2.json"), "", false, -1, 0); err == nil {
		t.Fatal("-trace with the serial baseline should be refused")
	}
}
