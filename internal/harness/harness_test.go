package harness

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"optibfs"
	"optibfs/internal/core"
	"optibfs/internal/costmodel"
	"optibfs/internal/graph"
)

// tinyConfig keeps harness tests fast: small graphs, few sources.
func tinyConfig() Config {
	return Config{
		Machine:  costmodel.Lonestar,
		Workers:  4,
		Sources:  2,
		ScaleDiv: 2048,
		Seed:     7,
	}
}

func TestSuiteSpecsGenerate(t *testing.T) {
	for _, spec := range Suite {
		g, err := spec.Generate(2048)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if g.NumVertices() < 2 {
			t.Fatalf("%s: n=%d", spec.Name, g.NumVertices())
		}
	}
}

func TestSuiteScalePreservesDegree(t *testing.T) {
	spec, err := SpecByName("wikipedia")
	if err != nil {
		t.Fatal(err)
	}
	small, err := spec.Generate(4096)
	if err != nil {
		t.Fatal(err)
	}
	fullAvg := float64(spec.M) / float64(spec.N)
	if got := small.AvgDegree(); got < fullAvg*0.7 || got > fullAvg*1.3 {
		t.Fatalf("scaled avg degree %.2f far from paper %.2f", got, fullAvg)
	}
}

func TestSpecByNameUnknown(t *testing.T) {
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("accepted unknown graph")
	}
	if _, err := (GraphSpec{Kind: "weird", N: 10, M: 10}).Generate(1); err == nil {
		t.Fatal("accepted unknown kind")
	}
	if _, err := (Suite[0]).Generate(0); err == nil {
		t.Fatal("accepted scale divisor 0")
	}
}

func TestAlgoByName(t *testing.T) {
	for _, a := range TableAlgos {
		got, err := AlgoByName(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != a.Name {
			t.Fatalf("resolved %q to %q", a.Name, got.Name)
		}
	}
	if _, err := AlgoByName("quantum-bfs"); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func TestAlgoSpecsRunEverywhere(t *testing.T) {
	spec, _ := SpecByName("kkt-power")
	g, err := spec.Generate(2048)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	for _, algo := range TableAlgos {
		res, err := algo.Run(g, 0, core.Options{Workers: 4, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name, err)
		}
		if err := graph.EqualDistances(res.Dist, want); err != nil {
			t.Fatalf("%s: %v", algo.Name, err)
		}
	}
}

// TestAlgoSpecsEverySuiteGraph and
// TestAlgoSpecsHybridEverySuiteGraph validate the core engines against
// the serial oracle on every graph of the paper's Table IV suite (scaled
// down), without and with the in-core direction-optimizing switch.
func TestAlgoSpecsEverySuiteGraph(t *testing.T) { checkOracleMatrix(t, false) }

func TestAlgoSpecsHybridEverySuiteGraph(t *testing.T) { checkOracleMatrix(t, true) }

// checkOracleMatrix runs every suite graph × {BFS_WL, BFS_WSL} across
// both reorder modes, and both an unbounded run and an s-t goal at a
// depth-3 vertex, all through NewRunner(...).RunGoal. Bottom-up levels
// may duplicate work but must never lose or corrupt a discovery: every
// distance at a closed level is exact, everything deeper is Unreached,
// and under Hybrid every level is counted as exactly one direction.
func checkOracleMatrix(t *testing.T, hybrid bool) {
	t.Helper()
	ctx := context.Background()
	for _, spec := range Suite {
		g, err := spec.Generate(2048)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		want := graph.ReferenceBFS(g, 0)
		goals := []core.Goal{{}}
		for v, d := range want {
			if d == 3 {
				goals = append(goals, core.GoalTo(int32(v)))
				break
			}
		}
		if len(goals) < 2 {
			t.Fatalf("%s: no depth-3 vertex to target", spec.Name)
		}
		for _, name := range []string{"BFS_WL", "BFS_WSL"} {
			algo, err := AlgoByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, reorder := range []core.ReorderMode{core.ReorderNone, core.ReorderDegree} {
				cell := fmt.Sprintf("%s/%s hybrid=%v reorder=%s", spec.Name, name, hybrid, reorder)
				r, err := algo.NewRunner(g, core.Options{
					Workers: 4, Seed: 9, Hybrid: hybrid, Reorder: reorder,
				})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				for _, goal := range goals {
					res, err := r.RunGoal(ctx, 0, goal)
					if err != nil {
						t.Fatalf("%s goal=%+v: %v", cell, goal, err)
					}
					if err := core.AuditError(core.Audit(g, 0, want, goal, res)); err != nil {
						t.Fatalf("%s goal=%+v: %v", cell, goal, err)
					}
					if got := res.Counters.TopDownLevels + res.Counters.BottomUpLevels; hybrid && got != int64(res.Levels) {
						t.Fatalf("%s goal=%+v: direction levels %d != levels %d", cell, goal, got, res.Levels)
					}
				}
				r.Close()
			}
		}
	}
}

func TestExtensionAlgosRunAndResolve(t *testing.T) {
	spec, _ := SpecByName("kkt-power")
	g, err := spec.Generate(2048)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	for _, algo := range ExtensionAlgos {
		byName, err := AlgoByName(algo.Name)
		if err != nil {
			t.Fatalf("%s not resolvable: %v", algo.Name, err)
		}
		res, err := byName.Run(g, 0, core.Options{Workers: 4, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name, err)
		}
		if err := graph.EqualDistances(res.Dist, want); err != nil {
			t.Fatalf("%s: %v", algo.Name, err)
		}
		if algo.Shape() != byName.Shape() {
			t.Fatalf("%s: shape mismatch", algo.Name)
		}
	}
}

func TestPickSources(t *testing.T) {
	spec, _ := SpecByName("wikipedia")
	g, err := spec.Generate(4096)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 10, 99)
	if len(srcs) != 10 {
		t.Fatalf("got %d sources", len(srcs))
	}
	for _, s := range srcs {
		if g.OutDegree(s) == 0 {
			t.Fatalf("source %d has zero out-degree", s)
		}
	}
	// Deterministic for a given seed.
	srcs2 := PickSources(g, 10, 99)
	for i := range srcs {
		if srcs[i] != srcs2[i] {
			t.Fatal("source sampling not deterministic")
		}
	}
}

func TestPickSourcesDegenerate(t *testing.T) {
	g, err := graph.FromEdges(5, nil, graph.BuildOptions{}) // all isolated
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 3, 1)
	if len(srcs) != 1 || srcs[0] != 0 {
		t.Fatalf("degenerate sampling returned %v", srcs)
	}
}

func TestRunCellBasics(t *testing.T) {
	spec, _ := SpecByName("cage14")
	g, err := spec.Generate(2048)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cell, err := RunCell(g, TableAlgos[2], cfg) // BFS_CL
	if err != nil {
		t.Fatal(err)
	}
	if cell.Runs != cfg.Sources {
		t.Fatalf("runs=%d", cell.Runs)
	}
	if cell.ModeledMS <= 0 || cell.MeasuredMS <= 0 {
		t.Fatalf("non-positive times: %+v", cell)
	}
	if cell.ModeledTEPS <= 0 {
		t.Fatalf("TEPS %g", cell.ModeledTEPS)
	}
	if cell.Reached <= 0 || cell.Levels <= 0 {
		t.Fatalf("cell stats: %+v", cell)
	}
}

func TestRunCellSerialForcesOneWorker(t *testing.T) {
	spec, _ := SpecByName("kkt-power")
	g, err := spec.Generate(4096)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := RunCell(g, TableAlgos[0], tinyConfig()) // sbfs
	if err != nil {
		t.Fatal(err)
	}
	if cell.Counters.StealAttempts != 0 || cell.Counters.LockAcquisitions != 0 {
		t.Fatalf("serial cell recorded parallel machinery: %+v", cell.Counters)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Headers: []string{"a", "b"},
		Notes:   []string{"hello"},
	}
	tab.AddRow("x", "yyy")
	tab.AddRow("longer") // short row padded
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T\n=", "a", "yyy", "longer", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tab.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "a,b\n") {
		t.Fatalf("csv header wrong: %q", csv.String())
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := &Table{Headers: []string{"x"}}
	tab.AddRow(`va"l,ue`)
	var csv bytes.Buffer
	if err := tab.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"va""l,ue"`) {
		t.Fatalf("csv quoting wrong: %q", csv.String())
	}
}

func TestFormatters(t *testing.T) {
	if fmtMS(123.4) != "123" || fmtMS(12.34) != "12.34" || fmtMS(0.5) != "0.5000" {
		t.Fatalf("fmtMS: %q %q %q", fmtMS(123.4), fmtMS(12.34), fmtMS(0.5))
	}
	if fmtTEPS(2.5e9) != "2.50GTEPS" || fmtTEPS(3.1e6) != "3.1MTEPS" || fmtTEPS(10) != "10TEPS" {
		t.Fatalf("fmtTEPS wrong")
	}
	if fmtCount(1234567) != "1,234,567" || fmtCount(12) != "12" || fmtCount(1000) != "1,000" {
		t.Fatalf("fmtCount: %q %q %q", fmtCount(1234567), fmtCount(12), fmtCount(1000))
	}
	if fmtPct(1, 4) != "25.00%" || fmtPct(1, 0) != "0.00%" {
		t.Fatalf("fmtPct wrong")
	}
}

func TestWorkerSweep(t *testing.T) {
	ps := workerSweep(12)
	if ps[0] != 1 || ps[len(ps)-1] != 12 {
		t.Fatalf("sweep %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatalf("sweep not increasing: %v", ps)
		}
	}
	ps1 := workerSweep(1)
	if len(ps1) == 0 || ps1[len(ps1)-1] != 1 {
		t.Fatalf("sweep(1) = %v", ps1)
	}
}

func TestExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow")
	}
	cfg := tinyConfig()
	var buf bytes.Buffer

	tab, err := GraphsTable(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Suite) {
		t.Fatalf("Table IV rows %d", len(tab.Rows))
	}

	if _, err := MachinesTable(&buf); err != nil {
		t.Fatal(err)
	}

	t5, err := Table5(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != len(TableAlgos) {
		t.Fatalf("Table V rows %d", len(t5.Rows))
	}
	if len(t5.Rows[0]) != len(Suite)+1 {
		t.Fatalf("Table V cols %d", len(t5.Rows[0]))
	}

	f2, err := Fig2(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Rows) != 2*len(LockfreeAlgos) {
		t.Fatalf("Fig2 rows %d", len(f2.Rows))
	}

	f3, err := Fig3(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Rows) != len(TableAlgos) {
		t.Fatalf("Fig3 rows %d", len(f3.Rows))
	}

	t6, err := Table6(&buf, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != 2 {
		t.Fatalf("Table VI rows %d", len(t6.Rows))
	}

	ext, err := Extensions(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Rows) != 2+len(ExtensionAlgos) {
		t.Fatalf("Extensions rows %d", len(ext.Rows))
	}
	out := buf.String()
	if !strings.Contains(out, "BFS_WSL") || !strings.Contains(out, "N/A") {
		t.Fatalf("Table VI content unexpected:\n%s", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Machine.Name != "Lonestar" || c.Workers != 12 || c.Sources != 8 || c.ScaleDiv != 64 || c.Seed == 0 {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := Config{Workers: 3}.WithDefaults()
	if c2.Workers != 3 {
		t.Fatalf("override lost: %+v", c2)
	}
}

// TestRunnerReuseAllFamilies checks the runner contract across every
// dispatch family: repeated Run calls on one runner (pooled for the
// core engines, DirectionOptimizing included, one-shot fallback for
// the baselines) all match the serial oracle, and Reseed between runs
// is accepted everywhere. A sweep-wide Hybrid option reaches every
// spec too: the serial baseline drops it in the harness, while the
// public BFS(Serial, Hybrid) keeps core's refusal.
func TestRunnerReuseAllFamilies(t *testing.T) {
	gspec, _ := SpecByName("wikipedia")
	g, err := gspec.Generate(4096)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ReferenceBFS(g, 0)
	specs := append(append([]AlgoSpec{}, TableAlgos...), ExtensionAlgos...)
	for _, hybrid := range []bool{false, true} {
		for _, spec := range specs {
			opt := core.Options{Workers: 4, Seed: 1, Hybrid: hybrid}
			runner, err := spec.NewRunner(g, opt)
			if err != nil {
				t.Fatalf("%s hybrid=%v: %v", spec.Name, hybrid, err)
			}
			for i := 0; i < 3; i++ {
				runner.Reseed(uint64(i) + 1)
				res, err := runner.Run(0)
				if err != nil {
					t.Fatalf("%s hybrid=%v run %d: %v", spec.Name, hybrid, i, err)
				}
				if err := graph.EqualDistances(res.Dist, want); err != nil {
					t.Fatalf("%s hybrid=%v run %d: %v", spec.Name, hybrid, i, err)
				}
			}
			runner.Close()
			res, err := spec.Run(g, 0, opt)
			if err != nil {
				t.Fatalf("%s hybrid=%v one-shot: %v", spec.Name, hybrid, err)
			}
			if err := graph.EqualDistances(res.Dist, want); err != nil {
				t.Fatalf("%s hybrid=%v one-shot: %v", spec.Name, hybrid, err)
			}
		}
	}
	if _, err := optibfs.BFS(g, 0, optibfs.Serial, &core.Options{Hybrid: true}); err == nil {
		t.Fatal("public BFS accepted Hybrid for the serial baseline")
	}
}
