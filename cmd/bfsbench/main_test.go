package main

import (
	"bytes"
	"strings"
	"testing"
)

// fastArgs keeps experiment tests quick: tiny graphs, few sources.
const (
	testScale   = 2048
	testSources = 2
	testSeed    = 7
	testReps    = 1
)

func TestRunSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers")
	}
	for _, exp := range []string{"machines", "graphs", "table6", "fig2a", "goal"} {
		var buf bytes.Buffer
		if err := run(&buf, exp, testScale, testSources, testSeed, testReps, false, 4, "", false, nil); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "machines", testScale, testSources, testSeed, testReps, true, 4, "", false, nil); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") {
		t.Fatalf("csv output missing commas: %q", first)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "tableZ", testScale, testSources, testSeed, testReps, false, 4, "", false, nil); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

func TestRunTable5(t *testing.T) {
	if testing.Short() {
		t.Skip("table5 runs every algorithm on every graph")
	}
	var buf bytes.Buffer
	if err := run(&buf, "table5a", testScale, 1, testSeed, testReps, false, 4, "", false, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BFS_WSL", "Baseline1(bag)", "wikipedia", "rmat-10M-1B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table5a output missing %q", want)
		}
	}
}
