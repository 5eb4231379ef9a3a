package core

import (
	"testing"

	"optibfs/internal/gen"
)

// TestLevelTimelineConsistency checks the per-level timeline against
// the run's own aggregates: the deltas must sum back to the totals,
// every level must be represented, and the frontier/duplicate
// accounting must reconcile with LevelSizes.
func TestLevelTimelineConsistency(t *testing.T) {
	g := engineTestGraph(t)
	for _, algo := range []Algorithm{BFSC, BFSCL, BFSDL, BFSWL, BFSWSL, BFSEL} {
		e, err := NewEngine(g, algo, Options{
			Workers: 4, Seed: 9, LevelTimeline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two runs so the second exercises the pooled-timeline reset.
		for run := 0; run < 2; run++ {
			res, err := e.Run(0)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if int32(len(res.LevelStats)) != res.Levels {
				t.Fatalf("%s run %d: %d timeline entries for %d levels",
					algo, run, len(res.LevelStats), res.Levels)
			}
			var pops, edges, discovered, dups int64
			for i, ls := range res.LevelStats {
				if ls.Level != int32(i) {
					t.Fatalf("%s: entry %d has level %d", algo, i, ls.Level)
				}
				if ls.Frontier <= 0 {
					t.Fatalf("%s: level %d frontier %d", algo, i, ls.Frontier)
				}
				if ls.WallNanos < 0 {
					t.Fatalf("%s: level %d wall %d", algo, i, ls.WallNanos)
				}
				pops += ls.Pops
				edges += ls.EdgesScanned
				discovered += ls.Discovered
				dups += ls.Duplicates
			}
			if pops != res.Pops {
				t.Fatalf("%s: timeline pops %d, run pops %d", algo, pops, res.Pops)
			}
			if edges != res.Counters.EdgesScanned {
				t.Fatalf("%s: timeline edges %d, counters %d", algo, edges, res.Counters.EdgesScanned)
			}
			// Discovery excludes the source, which beginRun seeds.
			if discovered != res.Counters.Discovered {
				t.Fatalf("%s: timeline discovered %d, counters %d", algo, discovered, res.Counters.Discovered)
			}
			if dups != res.Duplicates() {
				t.Fatalf("%s: timeline duplicates %d, run duplicates %d", algo, dups, res.Duplicates())
			}
		}
		e.Close()
	}
}

// TestLevelTimelineDisabledByDefault pins the zero-option behavior:
// no timeline unless asked for.
func TestLevelTimelineDisabledByDefault(t *testing.T) {
	g := engineTestGraph(t)
	res, err := Run(g, 0, BFSCL, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelStats != nil {
		t.Fatalf("timeline recorded without LevelTimeline: %d entries", len(res.LevelStats))
	}
}

// TestTraceDroppedEventsCounted forces the per-worker trace buffers to
// overflow and checks the drops are counted instead of silently eaten:
// recorded + dropped must equal what an uncapped trace records is not
// provable run-to-run (racy), but a full buffer with zero drops would
// mean the old silent truncation.
func TestTraceDroppedEventsCounted(t *testing.T) {
	g, err := gen.Star(4096)
	if err != nil {
		t.Fatal(err)
	}
	// SegmentSize 1 makes every slot a fetch: far more events than cap.
	res, err := Run(g, 0, BFSCL, Options{Workers: 4, TraceCapacity: 2, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsDropped == nil {
		t.Fatal("EventsDropped nil with tracing enabled")
	}
	if len(res.EventsDropped) != res.Workers {
		t.Fatalf("EventsDropped has %d entries for %d workers", len(res.EventsDropped), res.Workers)
	}
	var recorded, dropped int64
	for w := range res.Events {
		recorded += int64(len(res.Events[w]))
		dropped += res.EventsDropped[w]
		if len(res.Events[w]) >= 2 && res.EventsDropped[w] == 0 {
			// A full buffer must either have exactly fit or counted drops;
			// on a 4096-star with segment size 1 fetches alone exceed 2.
			t.Fatalf("worker %d: buffer full but no drops counted", w)
		}
	}
	if dropped == 0 {
		t.Fatalf("no drops counted (recorded=%d, cap=2)", recorded)
	}
	// Totals must reconcile: every dispatch event was either kept or counted.
	if recorded+dropped < res.Counters.Fetches {
		t.Fatalf("recorded %d + dropped %d < fetches %d", recorded, dropped, res.Counters.Fetches)
	}

	// A reused engine must reset the drop counts between runs.
	e, err := NewEngine(g, BFSCL, Options{Workers: 4, TraceCapacity: 1 << 20, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res2, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for w, d := range res2.EventsDropped {
		if d != 0 {
			t.Fatalf("worker %d dropped %d events under a huge cap", w, d)
		}
	}
}
