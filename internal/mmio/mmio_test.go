package mmio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 2 0.5
2 3 1.0
3 1 2.0
1 3 7
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if nb := g.Neighbors(0); len(nb) != 2 {
		t.Fatalf("neighbors of 0: %v", nb)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
2 1
3 1
2 2
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// 2 off-diagonal entries doubled + 1 diagonal = 5 directed edges.
	if g.NumEdges() != 5 {
		t.Fatalf("m=%d want 5", g.NumEdges())
	}
	found := false
	for _, w := range g.Neighbors(0) {
		if w == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("symmetric reverse edge 1->2 missing")
	}
}

func TestReadMatrixMarketRectangular(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 5 1
1 5
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("n=%d want 5 (max dim)", g.NumVertices())
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"notmm":       "hello world\n1 1 1\n",
		"array":       "%%MatrixMarket matrix array real general\n",
		"badsymmetry": "%%MatrixMarket matrix coordinate real diagonal\n1 1 0\n",
		"nosize":      "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"badsize":     "%%MatrixMarket matrix coordinate real general\nx y z\n",
		"outofrange":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"countdrift":  "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"malformed":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"badindex":    "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
		"zerobased":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted malformed input", name)
		}
	}
}

func TestMaxVerticesGuards(t *testing.T) {
	// Headers declaring absurd sizes must be rejected before any large
	// allocation happens (found by the fuzz corpus).
	huge := "%%MatrixMarket matrix coordinate real general\n999999999 2 1\n1 2 1.0\n"
	if _, err := ReadMatrixMarket(strings.NewReader(huge)); err == nil {
		t.Fatal("accepted 1e9-vertex header")
	}
	manyEntries := "%%MatrixMarket matrix coordinate real general\n2 2 99999999999\n"
	if _, err := ReadMatrixMarket(strings.NewReader(manyEntries)); err == nil {
		t.Fatal("accepted absurd entry count")
	}
	// The largest plausible entry count with no entries behind it: the
	// edge slice must not be sized from the promise (8 GiB).
	promise := "%%MatrixMarket matrix coordinate pattern general\n2 2 1073741824\n"
	if _, err := ReadMatrixMarket(strings.NewReader(promise)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("header promising 2^30 entries: %v, want ErrMalformed", err)
	}
	if _, err := ReadEdgeList(strings.NewReader("999999999999 1\n")); err == nil {
		t.Fatal("edge list accepted absurd vertex id")
	}
	// Vertex counts inside MaxVertices that no byte pays for: a size
	// line or one edge-list line names 2^28 vertices, 2 GiB of offsets.
	// A budget refuses both before the CSR is built; the unbudgeted
	// wrappers keep accepting such graphs for library callers.
	const budget = 1 << 20
	mtx := "%%MatrixMarket matrix coordinate pattern general\n268435456 268435456 1\n1 1\n"
	if _, err := ReadMatrixMarketBudget(strings.NewReader(mtx), budget); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2^28-vertex size line under a budget: %v, want ErrTooLarge", err)
	}
	if _, err := ReadEdgeListBudget(strings.NewReader("268435455 0\n"), budget); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2^28-vertex edge line under a budget: %v, want ErrTooLarge", err)
	}
	if g, err := ReadEdgeListBudget(strings.NewReader("0 1\n1 2\n"), budget); err != nil || g.NumVertices() != 3 {
		t.Fatalf("small edge list under a budget: %v", err)
	}
	// A short binary stream whose header promises the largest plausible
	// arrays (2 GiB of offsets, 64 GiB of edges) must fail as truncated,
	// allocating in proportion to the bytes present: allocating the
	// promise up front is a fatal out-of-memory, not an error.
	n, m := MaxVertices, 64*MaxVertices
	var v1 bytes.Buffer
	v1.Write(binaryMagic[:])
	for _, x := range []uint64{uint64(n), uint64(m), 0} {
		binary.Write(&v1, binary.LittleEndian, x)
	}
	v2 := encodeV2Header(v2Header{n: n, m: m, sec: v2Layout(n, m)})
	for name, hdr := range map[string][]byte{"v1": v1.Bytes(), "v2": v2} {
		data := append(slices.Clone(hdr), make([]byte, 4096)...)
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s header promising n=%d m=%d: %v, want ErrMalformed", name, n, m, err)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g, err := gen.Graph500RMAT(300, 2000, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGraph(g, g2); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := gen.ChungLu(200, 1500, 2.3, 8, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Trailing isolated vertices are not representable in an edge list;
	// compare up to the written vertex range.
	if g2.NumVertices() > g.NumVertices() {
		t.Fatalf("edge list grew the graph: %d -> %d", g.NumVertices(), g2.NumVertices())
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("m=%d want %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestReadEdgeListCommentsAndErrors(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for _, bad := range []string{"0\n", "a b\n", "0 x\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g, err := gen.LayeredRandom(500, 3000, 9, 2, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGraph(g, g2); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEmptyGraph(t *testing.T) {
	for _, g := range []*graph.CSR{
		{Offsets: []int64{0}},    // zero vertices
		{Offsets: []int64{0, 0}}, // one isolated vertex
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != 0 {
			t.Fatalf("n=%d m=%d, want n=%d m=0", g2.NumVertices(), g2.NumEdges(), g.NumVertices())
		}
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 500, 1, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad magic")
	}

	// Flip one payload byte: checksum must catch it.
	bad = append([]byte(nil), data...)
	bad[len(bad)-3] ^= 0x01
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted corrupted payload")
	}

	// Truncation.
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-8])); err == nil {
		t.Fatal("accepted truncated file")
	}
	if _, err := ReadBinary(bytes.NewReader(data[:4])); err == nil {
		t.Fatal("accepted tiny file")
	}
}

// Property: binary round trip is the identity on random RMAT graphs.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		n := int32(1 + seed%100)
		g, err := gen.Graph500RMAT(n, int64(seed%500), seed, gen.Options{})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteBinary(&buf, g) != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return sameGraph(g, g2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sameGraph(a, b *graph.CSR) error {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return errf("shape differs: (%d,%d) vs (%d,%d)", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := int32(0); v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return errf("degree of %d differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				return errf("adjacency of %d differs at %d", v, i)
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
