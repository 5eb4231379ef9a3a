package mmio

import (
	"os"
	"testing"
	"time"
)

// TestLoadMappedWarmLatency times LoadMapped against a pre-written v2
// file named by OPTIBFS_LOADTIME_FILE (skipped otherwise — generating
// a scale-22 graph is too slow for CI). The acceptance bar: a warm
// load of a scale-22 RMAT (4.2M vertices, 67M edges, ~300 MB) must
// map in under a second. The mmap itself is O(1); the time is the one
// verification pass over the mapped payload, which reads each section
// once and computes its checksum and the CSR invariants together.
// SkipVerify elides the checksums for callers that trust the file but
// keeps the structural half, so it still reads every page once.
func TestLoadMappedWarmLatency(t *testing.T) {
	path := os.Getenv("OPTIBFS_LOADTIME_FILE")
	if path == "" {
		t.Skip("set OPTIBFS_LOADTIME_FILE to a .bin2 file to run")
	}
	// Cold-ish first load (page cache state unknown), then warm loads.
	start := time.Now()
	m, err := LoadMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if !m.Mapped() {
		t.Fatal("v2 file did not take the mmap path")
	}
	n := m.Graph().NumVertices()
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}

	var warm time.Duration
	const rounds = 5
	for i := 0; i < rounds; i++ {
		start = time.Now()
		m, err = LoadMapped(path, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		warm += time.Since(start)
		if m.Graph().NumVertices() != n {
			t.Fatal("inconsistent reload")
		}
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
	}
	warmMean := warm / rounds

	// SkipVerify measures the structure-only floor for comparison.
	start = time.Now()
	m, err = LoadMapped(path, MapOptions{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	skip := time.Since(start)
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}

	t.Logf("cold=%s warm(mean of %d)=%s skip-verify=%s n=%d", cold, rounds, warmMean, skip, n)
	if warmMean > time.Second {
		t.Fatalf("warm LoadMapped took %s, want < 1s", warmMean)
	}
}
