package core

import (
	"testing"

	"optibfs/internal/gen"
)

func TestParentsNilByDefault(t *testing.T) {
	g, err := gen.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, BFSWSL, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent != nil {
		t.Fatal("parents tracked without the option")
	}
}

func TestLevelSizesProfile(t *testing.T) {
	g, err := gen.BinaryTree(31) // levels: 1,2,4,8,16
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range append([]Algorithm{Serial}, parallelAlgos...) {
		res, err := Run(g, 0, algo, Options{Workers: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{1, 2, 4, 8, 16}
		if len(res.LevelSizes) != len(want) {
			t.Fatalf("%s: LevelSizes %v", algo, res.LevelSizes)
		}
		for d, w := range want {
			if res.LevelSizes[d] != w {
				t.Fatalf("%s: level %d size %d, want %d", algo, d, res.LevelSizes[d], w)
			}
		}
	}
}
