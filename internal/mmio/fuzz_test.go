package mmio

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"optibfs/internal/gen"
)

// Fuzz targets: the parsers must never panic or accept structurally
// invalid graphs, whatever bytes they are fed. `go test` runs the seed
// corpus as regression tests; `go test -fuzz FuzzReadMatrixMarket`
// explores further.

// fuzzBudget caps the CSR each fuzz input may build: the text formats
// take their vertex count from a size line or a single id, so without
// it one mutated line costs up to 2 GiB of offsets.
const fuzzBudget = 1 << 24

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n999999999 2 1\n1 2 1\n")
	f.Add("%%MatrixMarket\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 -5 0\n")
	// Truncated headers: the banner cut mid-word, and a size line with
	// a missing field.
	f.Add("%%MatrixMarket matrix coordinate")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n")
	// Overflow coordinates: 20 digits exceeds int64; ParseInt must
	// reject them instead of wrapping into a bogus in-range index.
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n99999999999999999999 2 1\n1 2 1\n")
	// An entry count of 4·MaxVertices with no entries behind it: the
	// parser must not allocate the promise.
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1073741824\n")
	// A size line inside MaxVertices with one entry behind it: the
	// budget must refuse its 2 GiB of offsets.
	f.Add("%%MatrixMarket matrix coordinate pattern general\n268435456 268435456 1\n1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMatrixMarketBudget(strings.NewReader(in), fuzzBudget)
		if err == nil && g.Validate() != nil {
			t.Fatalf("parser accepted invalid graph for %q", in)
		}
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n5 5\n")
	f.Add("9999999999999 1\n")
	f.Add("a b\n")
	f.Add("-3 4\n")
	f.Add("")
	// 20-digit overflow coordinate.
	f.Add("99999999999999999999 1\n")
	// One line naming vertex 2^28−1: the budget must refuse it.
	f.Add("268435455 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeListBudget(strings.NewReader(in), fuzzBudget)
		if err == nil && g.Validate() != nil {
			t.Fatalf("parser accepted invalid graph for %q", in)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid file and several corruptions of it.
	g, err := gen.ErdosRenyi(30, 120, 1, gen.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Cuts at 9 and 23 land mid-way through the n and checksum header
	// fields; the others cover magic, offsets, and the final edge.
	for _, cut := range []int{0, 7, 8, 9, 20, 23, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xff // header n
	f.Add(flipped)
	// Implausible edge count: m's high bytes set, forcing the
	// plausibility gate rather than a giant allocation.
	bigM := append([]byte(nil), valid...)
	bigM[22] = 0x7f // top byte of little-endian m at offset 16..23
	f.Add(bigM)
	// Version-2 seeds: a valid file, truncations through the section
	// table and header checksum, a misaligned section offset (header
	// checksum recomputed so the alignment gate itself is reached), and
	// a corrupted per-section checksum.
	var buf2 bytes.Buffer
	if err := WriteBinaryV2(&buf2, g); err != nil {
		f.Fatal(err)
	}
	valid2 := buf2.Bytes()
	f.Add(valid2)
	for _, cut := range []int{0x18, 0x2c, 0x41, 0x57, v2HeaderSize, len(valid2) - 5} {
		f.Add(valid2[:cut])
	}
	n, m := int64(g.NumVertices()), g.NumEdges()
	mis := v2Header{n: n, m: m, sec: v2Layout(n, m)}
	mis.sec[1].off += 4
	f.Add(append(encodeV2Header(mis), valid2[v2HeaderSize:]...))
	badSum := append([]byte(nil), valid2...)
	badSum[v2HeaderSize+16] ^= 0x80 // offsets payload; section checksum catches it
	f.Add(badSum)
	// Valid section sums over an invalid CSR: only the structural half
	// of the verification pass can reject these.
	for _, mutate := range []func(offs []int64, edges []int32){
		func(_ []int64, e []int32) { e[5] = int32(n) },
		func(_ []int64, e []int32) { e[len(e)-1] = -1 },
		func(o []int64, _ []int32) { o[10] = o[11] + 1 },
		func(o []int64, _ []int32) { o[0] = 1 },
		func(o []int64, _ []int32) { o[n] = m - 1 },
	} {
		offs, edges := slices.Clone(g.Offsets), slices.Clone(g.Edges)
		mutate(offs, edges)
		f.Add(validSumsV2(offs, edges))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err == nil && g.Validate() != nil {
			t.Fatal("binary reader accepted invalid graph")
		}
	})
}
