package core

import (
	"context"
	"testing"

	"optibfs/internal/gen"
)

func TestRunContextAlreadyCanceled(t *testing.T) {
	g, err := gen.Path(5000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range append([]Algorithm{Serial}, parallelAlgos...) {
		res, err := RunContext(ctx, g, 0, algo, Options{Workers: 4})
		if err == nil {
			t.Fatalf("%s: canceled run returned no error", algo)
		}
		// Aborted runs report their partial progress alongside the
		// error: a pre-canceled run settles only the seeded source.
		if res == nil {
			t.Fatalf("%s: canceled run returned no partial result", algo)
		}
		if res.Levels != 0 {
			t.Fatalf("%s: pre-canceled run completed %d levels", algo, res.Levels)
		}
		if res.Reached != 1 {
			t.Fatalf("%s: pre-canceled run reached %d vertices, want 1 (the source)", algo, res.Reached)
		}
		if res.Dist[0] != 0 {
			t.Fatalf("%s: partial result lost the source distance", algo)
		}
	}
}

func TestRunContextCancelsMidSearch(t *testing.T) {
	// A deep path gives thousands of level boundaries; cancel after
	// the search starts and assert it stops with the context error.
	g, err := gen.Path(30000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	close(started)
	_, err = RunContext(ctx, g, 0, BFSWSL, Options{Workers: 4})
	// Depending on timing the run may finish before cancellation is
	// observed; both outcomes are legal, but an error must be the
	// context's.
	if err != nil && err != context.Canceled {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestRunContextPersistentWorkers(t *testing.T) {
	g, err := gen.Path(10000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, g, 0, BFSCL, Options{Workers: 4}); err != context.Canceled {
		t.Fatalf("pre-canceled run: got %v", err)
	}
}
