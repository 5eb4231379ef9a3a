package mmio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"optibfs/internal/gen"
	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

func v2File(t *testing.T, g *graph.CSR) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryV2(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustSameGraph(t *testing.T, got, want *graph.CSR) {
	t.Helper()
	if err := sameGraph(got, want); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryV2StreamRoundTrip(t *testing.T) {
	g, err := gen.ErdosRenyi(500, 3000, 7, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mustSameGraph(t, got, g)
}

func TestBinaryV2EmptyGraph(t *testing.T) {
	for _, g := range []*graph.CSR{{}, {Offsets: []int64{0, 0, 0}}} {
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != 0 {
			t.Fatalf("empty graph round-trip got %v", got)
		}
	}
}

func TestLoadMappedZeroCopy(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 2000, 3, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := LoadMapped(v2File(t, g), MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !mg.Mapped() {
		t.Fatal("v2 file did not map")
	}
	mustSameGraph(t, mg.Graph(), g)
	if err := mg.Release(); err != nil {
		t.Fatal(err)
	}
	if !mg.Unmapped() {
		t.Fatal("final Release did not unmap")
	}
}

func TestLoadMappedSkipVerify(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 900, 4, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := LoadMapped(v2File(t, g), MapOptions{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Release()
	mustSameGraph(t, mg.Graph(), g)

	// A structurally valid file with wrong sums loads: the checksums
	// are what SkipVerify skips.
	path := filepath.Join(t.TempDir(), "badsums.bin2")
	if err := os.WriteFile(path, v2Bytes(g.Offsets, g.Edges, 1, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	skipped, err := LoadMapped(path, MapOptions{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	skipped.Release()

	// Skipping the checksums never skips the structure: offsets that
	// decrease mid-array, with both boundary words intact, or a target
	// past n would be out-of-bounds reads in a kernel.
	for name, mutate := range map[string]func(offs []int64, edges []int32){
		"offsets decrease": func(o []int64, _ []int32) { o[100] = o[99] + 900 },
		"target past n":    func(_ []int64, e []int32) { e[17] = 1 << 20 },
	} {
		offs, edges := slices.Clone(g.Offsets), slices.Clone(g.Edges)
		mutate(offs, edges)
		// Wrong sums too: with SkipVerify only the structure can object.
		path := filepath.Join(t.TempDir(), "bad.bin2")
		if err := os.WriteFile(path, v2Bytes(offs, edges, 1, 2), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMapped(path, MapOptions{SkipVerify: true}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want ErrMalformed", name, err)
		}
	}
}

func TestLoadMappedRefcount(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 120, 5, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := LoadMapped(v2File(t, g), MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mg.Retain()
	if err := mg.Release(); err != nil {
		t.Fatal(err)
	}
	if mg.Unmapped() {
		t.Fatal("unmapped while a reference was still held")
	}
	// The graph must stay readable through the extra reference.
	if mg.Graph().Offsets[0] != 0 {
		t.Fatal("mapped graph unreadable")
	}
	if err := mg.Release(); err != nil {
		t.Fatal(err)
	}
	if !mg.Unmapped() {
		t.Fatal("not unmapped after final release")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release past zero did not panic")
		}
	}()
	mg.Release()
}

func TestLoadMappedV1Fallback(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 400, 6, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mg, err := LoadMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Release()
	if mg.Mapped() {
		t.Fatal("v1 file claims to be mapped")
	}
	mustSameGraph(t, mg.Graph(), g)
}

func TestLoadMappedPathTaxonomy(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadMapped(filepath.Join(dir, "missing.bin"), MapOptions{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("missing file: %v, want ErrMalformed", err)
	}
	if _, err := LoadMapped(dir, MapOptions{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("directory: %v, want ErrMalformed", err)
	}
}

// corruptV2 returns a valid v2 file's bytes with mutate applied.
func corruptV2(t *testing.T, mutate func([]byte)) []byte {
	t.Helper()
	g, err := gen.ErdosRenyi(120, 700, 8, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	mutate(b)
	return b
}

func TestBinaryV2DetectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"header n flipped", func(b []byte) { b[0x08] ^= 1 }},
		{"section table offset flipped", func(b []byte) { b[0x20] ^= 1 }},
		{"bad offsets checksum in table", func(b []byte) { b[0x30] ^= 1 }},
		{"bad edges checksum in table", func(b []byte) { b[0x48] ^= 1 }},
		{"header checksum flipped", func(b []byte) { b[0x50] ^= 1 }},
		{"offsets payload flipped", func(b []byte) { b[v2HeaderSize+8] ^= 1 }},
		{"edges payload flipped", func(b []byte) { b[len(b)-2] ^= 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := corruptV2(t, tc.mutate)
			if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
				t.Fatalf("stream read: %v, want ErrMalformed", err)
			}
			path := filepath.Join(t.TempDir(), "bad.bin2")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadMapped(path, MapOptions{}); !errors.Is(err, ErrMalformed) {
				t.Fatalf("mapped read: %v, want ErrMalformed", err)
			}
		})
	}
}

func TestBinaryV2Truncations(t *testing.T) {
	full := corruptV2(t, func([]byte) {})
	for _, cut := range []int{0x10, 0x28, 0x4f, v2HeaderSize - 1, v2HeaderSize + 5, len(full) - 3} {
		data := full[:cut]
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut %d stream: %v, want ErrMalformed", cut, err)
		}
		path := filepath.Join(t.TempDir(), "cut.bin2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMapped(path, MapOptions{}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut %d mapped: %v, want ErrMalformed", cut, err)
		}
	}
}

// A crafted header whose section table is internally consistent but
// points at a misaligned offset must be rejected before any unsafe
// slice cast, by both readers.
func TestBinaryV2RejectsMisalignedSections(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 200, 9, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, m := int64(g.NumVertices()), g.NumEdges()
	h := v2Header{n: n, m: m, sec: v2Layout(n, m)}
	h.sec[1].off += 4 // well-formed headerSum, misaligned edges section
	hdr := encodeV2Header(h)
	body := make([]byte, int(h.sec[1].off+h.sec[1].length)-v2HeaderSize)
	data := append(hdr, body...)
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("stream: %v, want ErrMalformed", err)
	}
	path := filepath.Join(t.TempDir(), "misaligned.bin2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMapped(path, MapOptions{}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("mapped: %v, want ErrMalformed", err)
	}
}

// refSumOffsets and refSumEdges are the per-element definitions of the
// two v2 section checksums, written out independently of the chunked
// verification kernels they check.
func refSumOffsets(offs []int64) uint64 {
	var h uint64
	for i, v := range offs {
		h ^= rng.Mix64(uint64(v) + uint64(i)*0x9e37)
	}
	return h
}

func refSumEdges(edges []int32) uint64 {
	var h uint64
	for i, e := range edges {
		h ^= rng.Mix64(uint64(uint32(e)) + uint64(i)*0x85eb)
	}
	return h
}

// refMonotone and refMaxTarget are the per-element definitions of the
// structural results of the kernels.
func refMonotone(offs []int64) bool {
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return false
		}
	}
	return true
}

func refMaxTarget(edges []int32) uint32 {
	var m uint32
	for _, e := range edges {
		m = max(m, uint32(e))
	}
	return m
}

// v2Bytes assembles a v2 file over the given arrays with the section
// sums the caller supplies.
func v2Bytes(offs []int64, edges []int32, offSum, edgeSum uint64) []byte {
	n, m := int64(len(offs)-1), int64(len(edges))
	h := v2Header{n: n, m: m, sec: v2Layout(n, m)}
	h.sec[0].sum, h.sec[1].sum = offSum, edgeSum
	b := make([]byte, h.sec[1].off+h.sec[1].length)
	copy(b, encodeV2Header(h))
	for i, v := range offs {
		binary.LittleEndian.PutUint64(b[h.sec[0].off+8*uint64(i):], uint64(v))
	}
	for i, e := range edges {
		binary.LittleEndian.PutUint32(b[h.sec[1].off+4*uint64(i):], uint32(e))
	}
	return b
}

// validSumsV2 is v2Bytes with the sums computed over the arrays as
// given, so that only the structural checks can reject the file.
func validSumsV2(offs []int64, edges []int32) []byte {
	return v2Bytes(offs, edges, refSumOffsets(offs), refSumEdges(edges))
}

// splitCSR is a graph large enough that both of its sections split into
// several verification chunks: 2^18 vertices of out-degree 2.
func splitCSR() *graph.CSR {
	n := sumChunkMin
	g := &graph.CSR{Offsets: make([]int64, n+1), Edges: make([]int32, 2*n)}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] = int64(2*v + 2)
		g.Edges[2*v] = int32((v + 1) % n)
		g.Edges[2*v+1] = int32((7*v + 3) % n)
	}
	return g
}

// chunksOf reports how many chunks the verification pass splits a
// section of n elements into.
func chunksOf(n int) int {
	return len(scanChunks(n, func(lo, hi int) struct{} { return struct{}{} }))
}

// loadBoth reads data through the stream reader and through LoadMapped
// (with opt) and returns both errors.
func loadBoth(t *testing.T, data []byte, opt MapOptions) (stream, mapped error) {
	t.Helper()
	_, stream = ReadBinary(bytes.NewReader(data))
	path := filepath.Join(t.TempDir(), "g.bin2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mg, mapped := LoadMapped(path, opt)
	if mapped == nil {
		mg.Release()
	}
	return stream, mapped
}

// TestBinaryV2PinnedSums pins the on-disk checksum format: the section
// sums of a small fixed graph, as files written since the format's
// introduction carry them. A file built with these sums must load.
func TestBinaryV2PinnedSums(t *testing.T) {
	offs := []int64{0, 2, 3, 3, 6, 7}
	edges := []int32{1, 4, 0, 0, 2, 3, 1}
	const wantOffs, wantEdges = 0x18b4dc1585e0a7d6, 0xe0b25c8f10fcb0d5
	if got, _ := scanOffsets(offs, true); got != wantOffs {
		t.Fatalf("offsets sum %#x, pinned %#x", got, uint64(wantOffs))
	}
	if got, _ := scanEdges(edges, true); got != wantEdges {
		t.Fatalf("edges sum %#x, pinned %#x", got, uint64(wantEdges))
	}
	pinned := v2Bytes(offs, edges, wantOffs, wantEdges)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, &graph.CSR{Offsets: offs, Edges: edges}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), pinned) {
		t.Fatal("WriteBinaryV2 output differs from the pinned file")
	}
	if stream, mapped := loadBoth(t, pinned, MapOptions{}); stream != nil || mapped != nil {
		t.Fatalf("pinned file rejected: stream %v, mapped %v", stream, mapped)
	}
}

func TestBinaryV2ChecksumMatchesMappedAndStreamed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// The section checksums must compute identically over heap slices
	// and mapped slices, and the chunked kernels must match the
	// per-element definitions for every tail length and across chunks.
	big := splitCSR()
	split := len(big.Edges)
	if chunksOf(split) < 2 || chunksOf(len(big.Offsets)) < 2 {
		t.Fatalf("sections of %d and %d elements do not split", len(big.Offsets), split)
	}
	r := rng.NewXoshiro256(11)
	parity := func(where string, offs []int64, edges []int32) {
		t.Helper()
		if sum, mono := scanOffsets(offs, true); sum != refSumOffsets(offs) || mono != refMonotone(offs) {
			t.Fatalf("%s offsets len %d: kernel (%#x, %v), reference (%#x, %v)",
				where, len(offs), sum, mono, refSumOffsets(offs), refMonotone(offs))
		}
		if _, mono := scanOffsets(offs, false); mono != refMonotone(offs) {
			t.Fatalf("%s offsets len %d: unsummed kernel monotone %v", where, len(offs), mono)
		}
		if sum, mx := scanEdges(edges, true); sum != refSumEdges(edges) || mx != refMaxTarget(edges) {
			t.Fatalf("%s edges len %d: kernel (%#x, %d), reference (%#x, %d)",
				where, len(edges), sum, mx, refSumEdges(edges), refMaxTarget(edges))
		}
		if _, mx := scanEdges(edges, false); mx != refMaxTarget(edges) {
			t.Fatalf("%s edges len %d: unsummed kernel max %d", where, len(edges), mx)
		}
	}
	for _, l := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, split + 3} {
		offs, edges := make([]int64, l), make([]int32, l)
		for i := range offs {
			offs[i] = int64(r.Next())
			edges[i] = int32(r.Next())
		}
		parity("heap random", offs, edges)
		slices.Sort(offs)
		parity("heap sorted", offs, edges)
	}

	mg, err := LoadMapped(v2File(t, big), MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Release()
	mapped := mg.Graph()
	for _, l := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, split} {
		parity("mapped", mapped.Offsets[:min(l, len(mapped.Offsets))], mapped.Edges[:l])
	}
	hs, _ := scanOffsets(big.Offsets, true)
	ms, _ := scanOffsets(mapped.Offsets, true)
	he, _ := scanEdges(big.Edges, true)
	me, _ := scanEdges(mapped.Edges, true)
	if hs != ms || he != me {
		t.Fatal("section checksums differ between mapped and heap")
	}
}

// A file whose section sums are valid but whose CSR is not must be
// rejected by the structural half of the verification pass, with
// graph.Validate's description of the violation, wherever the
// violation falls relative to the chunks.
func TestBinaryV2ValidSumsInvalidCSR(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := splitCSR()
	n := len(base.Offsets) - 1
	k := chunksOf(len(base.Offsets))
	if k < 2 || chunksOf(len(base.Edges)) < 2 {
		t.Fatal("test graph does not split into chunks")
	}
	boundary := len(base.Offsets) / k // first index of chunk 1
	cases := []struct {
		name   string
		mutate func(offs []int64, edges []int32)
	}{
		{"target = n", func(_ []int64, e []int32) { e[len(e)/2+1] = int32(n) }},
		{"negative target", func(_ []int64, e []int32) { e[3*len(e)/4] = -5 }},
		{"offsets decrease mid-chunk", func(o []int64, _ []int32) { o[boundary/2+2] = o[boundary/2+1] - 1 }},
		{"offsets decrease at chunk boundary", func(o []int64, _ []int32) { o[boundary] = o[boundary-1] - 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &graph.CSR{Offsets: slices.Clone(base.Offsets), Edges: slices.Clone(base.Edges)}
			tc.mutate(g.Offsets, g.Edges)
			want := g.Validate()
			if want == nil {
				t.Fatal("mutation left the graph valid")
			}
			data := validSumsV2(g.Offsets, g.Edges)
			for _, opt := range []MapOptions{{}, {SkipVerify: true}} {
				stream, mapped := loadBoth(t, data, opt)
				for _, err := range []error{stream, mapped} {
					if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), want.Error()) {
						t.Fatalf("SkipVerify=%v: got %v, want ErrMalformed carrying %q", opt.SkipVerify, err, want)
					}
				}
			}
		})
	}
}
