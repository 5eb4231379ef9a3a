package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// crewLabels returns the profile labels of every live goroutine
// labeled with algo, read from the debug=1 goroutine profile, which
// groups goroutines by stack and label set.
func crewLabels(t *testing.T, algo Algorithm) []map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	var out []map[string]string
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		lines := strings.Split(rec, "\n")
		var n int
		if _, err := fmt.Sscanf(lines[0], "%d @", &n); err != nil {
			continue
		}
		for _, l := range lines[1:] {
			js, ok := strings.CutPrefix(l, "# labels: ")
			if !ok {
				continue
			}
			var labels map[string]string
			if err := json.Unmarshal([]byte(js), &labels); err != nil {
				t.Fatalf("labels %q: %v", js, err)
			}
			if labels["algo"] == string(algo) {
				for i := 0; i < n; i++ {
					out = append(out, labels)
				}
			}
		}
	}
	return out
}

// awaitCrew polls the goroutine profile until exactly want goroutines
// carry algo's label beyond those in base — workers label themselves
// once scheduled and leave the profile only after returning, so both
// edges need a moment — and returns the labels of the ones base lacks.
func awaitCrew(t *testing.T, algo Algorithm, base []map[string]string, want int) []map[string]string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := crewLabels(t, algo)
		if len(got) == len(base)+want {
			old := map[string]int{}
			for _, l := range base {
				old[fmt.Sprint(l)]++
			}
			var fresh []map[string]string
			for _, l := range got {
				if k := fmt.Sprint(l); old[k] > 0 {
					old[k]--
				} else {
					fresh = append(fresh, l)
				}
			}
			if len(fresh) == want {
				return fresh
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d labeled goroutines, want %d more than %d", algo, len(got), want, len(base))
		}
		time.Sleep(time.Millisecond)
	}
}

// checkCrew asserts labels describe exactly one crew of workers
// goroutines per shard, ids 0..workers-1 (offset per shard), each
// carrying only the algo, worker and level-phase labels.
func checkCrew(t *testing.T, algo Algorithm, labels []map[string]string, total int) {
	t.Helper()
	var ids []int
	for _, l := range labels {
		if len(l) != 3 || (l["level-phase"] != "idle" && l["level-phase"] != "search") {
			t.Fatalf("%s: crew goroutine labeled %v", algo, l)
		}
		id, err := strconv.Atoi(l["worker"])
		if err != nil {
			t.Fatalf("%s: worker label %q", algo, l["worker"])
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("%s: worker ids %v, want 0..%d", algo, ids, total-1)
		}
	}
	if len(ids) != total {
		t.Fatalf("%s: %d crew goroutines, want %d", algo, len(ids), total)
	}
}

// TestCrewLifecycle pins the crew's lifetime on every engine type: an
// open engine shows exactly its crew in the goroutine profile — Workers
// goroutines per crew, labeled by algorithm, worker and level phase —
// and Close leaves none behind, whether the engine never ran or was
// poisoned by a worker panic.
func TestCrewLifecycle(t *testing.T) {
	g := engineTestGraph(t)
	const workers = 3
	type engine interface{ Close() }
	type tc struct {
		name  string
		algo  Algorithm
		crews int
		open  func(chaos ChaosHook) (engine, error)
		run   func(e engine) error
	}
	var cases []tc
	for _, algo := range parallelAlgos {
		algo := algo
		cases = append(cases, tc{
			name: string(algo), algo: algo, crews: 1,
			open: func(h ChaosHook) (engine, error) {
				return NewEngine(g, algo, Options{Workers: workers, Chaos: h})
			},
			run: func(e engine) error { _, err := e.(*Engine).Run(0); return err },
		})
	}
	cases = append(cases,
		tc{
			name: "sharded", algo: BFSWL, crews: 2,
			open: func(h ChaosHook) (engine, error) {
				return NewBackend(g, BFSWL, Options{Workers: workers, Shards: 2, Chaos: h})
			},
			run: func(e engine) error { _, err := e.(*ShardedEngine).Run(0); return err },
		},
		tc{
			name: "fused", algo: MSBFSL, crews: 1,
			open: func(h ChaosHook) (engine, error) {
				return NewMSEngine(g, Options{Workers: workers, Chaos: h})
			},
			run: func(e engine) error { _, err := e.(*MSEngine).Run([]int32{0, 5}); return err },
		},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.crews * workers
			// Engines other tests left open keep their crews, parked;
			// count relative to them.
			base := crewLabels(t, c.algo)

			e, err := c.open(nil)
			if err != nil {
				t.Fatal(err)
			}
			checkCrew(t, c.algo, awaitCrew(t, c.algo, base, want), want)
			e.Close()
			awaitCrew(t, c.algo, base, 0)

			e, err = c.open(&panicOnceHook{})
			if err != nil {
				t.Fatal(err)
			}
			var wp *WorkerPanicError
			if err := c.run(e); !errors.As(err, &wp) {
				t.Fatalf("got %v, want *WorkerPanicError", err)
			}
			checkCrew(t, c.algo, awaitCrew(t, c.algo, base, want), want)
			e.Close()
			awaitCrew(t, c.algo, base, 0)
		})
	}
}
