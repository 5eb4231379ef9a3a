package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optibfs/internal/chaos"
	"optibfs/internal/core"
)

func TestListProfiles(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(&buf, 0, 0, 0, 0, "all", "all", "", "", true, false, false, nil)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	for _, p := range chaos.Profiles() {
		if !strings.Contains(buf.String(), p.Name) {
			t.Fatalf("-list output missing %q:\n%s", p.Name, buf.String())
		}
	}
}

func TestSelectorErrors(t *testing.T) {
	if _, err := run(os.Stdout, 0, 1, 4, 0, "no-such-profile", "all", "", "", false, false, false, nil); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := run(os.Stdout, 0, 1, 4, 0, "all", "BFS_NOPE", "", "", false, false, false, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := run(os.Stdout, 0, 1, 4, 0, "all", "all", "", "no-such-artifact.json", false, false, false, nil); err == nil {
		t.Fatal("missing replay artifact accepted")
	}
}

func TestSelectors(t *testing.T) {
	ps, err := selectProfiles("steal-storm, mixed")
	if err != nil || len(ps) != 2 || ps[0].Name != "steal-storm" || ps[1].Name != "mixed" {
		t.Fatalf("selectProfiles = %v, %v", ps, err)
	}
	as, err := selectAlgos("BFS_WL,BFS_WSL,MS_BFSL")
	if err != nil || len(as) != 3 || as[0] != core.BFSWL || as[1] != core.BFSWSL || as[2] != core.MSBFSL {
		t.Fatalf("selectAlgos = %v, %v", as, err)
	}
	if ps, err := selectProfiles("all"); err != nil || ps != nil {
		t.Fatalf("selectProfiles(all) = %v, %v", ps, err)
	}
}

// TestSmokeSweep is the CI smoke in miniature: a narrow sweep must
// exit 0 and print the summary line.
func TestSmokeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke skipped in -short")
	}
	var buf bytes.Buffer
	code, err := run(&buf, 0, 1, 4, 0, "steal-storm", "BFS_WL,BFS_WSL,MS_BFSL", "", "", false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "0 failures") || !strings.Contains(buf.String(), "fused lanes audited") {
		t.Fatalf("summary missing:\n%s", buf.String())
	}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	prof, err := chaos.ProfileByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	path, err := chaos.WriteRepro(dir, chaos.Repro{
		Graph:         chaos.GraphSpec{Kind: "star", N: 256, Seed: 2},
		Algorithm:     core.BFSWL,
		Options:       chaos.RunOptions{Workers: 4, Seed: 11},
		Profile:       prof,
		InjectionSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(path) != ".json" {
		t.Fatalf("artifact %q not JSON-named", path)
	}
	var buf bytes.Buffer
	code, err := run(&buf, 0, 1, 4, 0, "all", "all", "", path, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("replay of a correct run exited %d:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "replayed BFS_WL") {
		t.Fatalf("replay summary missing:\n%s", buf.String())
	}
}
