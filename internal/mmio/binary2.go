package mmio

import (
	"bufio"
	"encoding/binary"
	"io"
	"runtime"
	"sync"

	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// Binary CSR format, version 2 — designed so a reader can mmap the
// file and hand the section bytes directly to the engine as the
// Offsets/Edges arrays (zero copies; the load reads each page once, to
// verify it):
//
//	0x00  magic     [8]byte "OPTIBFS2"
//	0x08  n         int64   vertices
//	0x10  m         int64   edges
//	0x18  sections  uint32  (always 2)
//	0x1c  flags     uint32  (always 0; reserved)
//	0x20  table     2 × {off uint64, len uint64, sum uint64}
//	0x50  headerSum uint64  Mix64 chain over bytes [0x00, 0x50)
//	0x58  zero padding to 0x80
//	0x80  section 0: offsets, (n+1)×8 bytes
//	      zero padding to the next 64-byte boundary
//	      section 1: edges, m×4 bytes
//
// All integers little-endian. Every section begins on a 64-byte
// boundary (cache-line aligned, and in particular 8-byte aligned so the
// mapped bytes can be viewed as []int64/[]int32 directly). Each section
// carries its own checksum — an XOR of per-element index-salted Mix64
// values, so verification parallelizes over chunks and computes
// identically whether the data was streamed or mapped.
var binaryMagic2 = [8]byte{'O', 'P', 'T', 'I', 'B', 'F', 'S', '2'}

const (
	// v2HeaderSize is the byte offset of section 0: fixed header plus
	// table plus padding. A multiple of v2Align.
	v2HeaderSize = 0x80
	// v2Align is the section alignment.
	v2Align = 64
	// v2Sections is the number of sections (offsets, edges).
	v2Sections = 2
)

// v2Section describes one entry of the v2 section table.
type v2Section struct {
	off, length, sum uint64
}

// v2Header is the parsed fixed header of a v2 file.
type v2Header struct {
	n, m int64
	sec  [v2Sections]v2Section
}

// align64 rounds x up to the next multiple of v2Align.
func align64(x uint64) uint64 {
	return (x + v2Align - 1) &^ (v2Align - 1)
}

// sumChunkMin is the smallest per-goroutine chunk worth forking for in
// the section verification pass.
const sumChunkMin = 1 << 18

// Section checksum salts: element i of a section contributes
// Mix64(value + i*salt) to the section's XOR sum.
const (
	offsetsSalt = 0x9e37
	edgesSalt   = 0x85eb
)

// scanChunks splits [0, n) into min(GOMAXPROCS, 8) contiguous chunks
// (one below sumChunkMin), scans each on its own goroutine (the first
// on the caller's) and returns the per-chunk results in order.
func scanChunks[T any](n int, scan func(lo, hi int) T) []T {
	k := min(runtime.GOMAXPROCS(0), 8)
	if n < sumChunkMin {
		k = 1
	}
	parts := make([]T, k)
	var wg sync.WaitGroup
	for c := 1; c < k; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = scan(n*c/k, n*(c+1)/k)
		}(c)
	}
	parts[0] = scan(0, n/k)
	wg.Wait()
	return parts
}

// offsetsScan is one chunk's share of the offsets pass.
type offsetsScan struct {
	sum      uint64
	monotone bool
}

// scanOffsets is the one verification pass over an offsets section: it
// returns the section checksum (0 unless withSum) and whether offs never
// decreases, including across chunk boundaries.
func scanOffsets(offs []int64, withSum bool) (sum uint64, monotone bool) {
	monotone = true
	for _, p := range scanChunks(len(offs), func(lo, hi int) offsetsScan {
		return offsetsChunk(offs, lo, hi, withSum)
	}) {
		sum ^= p.sum
		monotone = monotone && p.monotone
	}
	return sum, monotone
}

// offsetsChunk scans offs[lo:hi], comparing offs[lo] with offs[lo-1] so
// the pair that straddles two chunks is checked too.
func offsetsChunk(offs []int64, lo, hi int, withSum bool) offsetsScan {
	if lo >= hi {
		return offsetsScan{monotone: true}
	}
	prev := offs[max(lo-1, 0)]
	var h uint64
	x := uint64(lo) * offsetsSalt
	down := false
	for _, v := range offs[lo:hi] {
		if withSum {
			h ^= rng.Mix64(uint64(v) + x)
			x += offsetsSalt
		}
		if v < prev {
			down = true
		}
		prev = v
	}
	return offsetsScan{h, !down}
}

// edgesScan is one chunk's share of the edges pass.
type edgesScan struct {
	sum uint64
	max uint32
}

// scanEdges is the one verification pass over an edges section: it
// returns the section checksum (0 unless withSum) and the largest
// target read as uint32, so a negative target wraps above any valid
// vertex count.
func scanEdges(edges []int32, withSum bool) (sum uint64, maxTarget uint32) {
	for _, p := range scanChunks(len(edges), func(lo, hi int) edgesScan {
		return edgesChunk(edges, lo, hi, withSum)
	}) {
		sum ^= p.sum
		maxTarget = max(maxTarget, p.max)
	}
	return sum, maxTarget
}

// edgesChunk scans edges[lo:hi].
func edgesChunk(edges []int32, lo, hi int, withSum bool) edgesScan {
	var h uint64
	var m uint32
	x := uint64(lo) * edgesSalt
	for _, e := range edges[lo:hi] {
		u := uint32(e)
		if withSum {
			h ^= rng.Mix64(uint64(u) + x)
			x += edgesSalt
		}
		m = max(m, u)
	}
	return edgesScan{h, m}
}

// v2HeaderSum hashes the first 0x50 header bytes as ten uint64 words.
func v2HeaderSum(hdr []byte) uint64 {
	var h uint64
	for i := 0; i < 0x50; i += 8 {
		h ^= rng.Mix64(binary.LittleEndian.Uint64(hdr[i:]) + uint64(i)*0xc2b2)
	}
	return h
}

// v2Layout computes the section table for a graph of n vertices and m
// edges (offsets and lengths only; sums filled by the caller).
func v2Layout(n, m int64) [v2Sections]v2Section {
	var sec [v2Sections]v2Section
	sec[0].off = v2HeaderSize
	sec[0].length = uint64(n+1) * 8
	sec[1].off = align64(sec[0].off + sec[0].length)
	sec[1].length = uint64(m) * 4
	return sec
}

// encodeV2Header serializes the fixed header (including headerSum) into
// a v2HeaderSize-byte block, zero padded.
func encodeV2Header(h v2Header) []byte {
	buf := make([]byte, v2HeaderSize)
	copy(buf, binaryMagic2[:])
	binary.LittleEndian.PutUint64(buf[0x08:], uint64(h.n))
	binary.LittleEndian.PutUint64(buf[0x10:], uint64(h.m))
	binary.LittleEndian.PutUint32(buf[0x18:], v2Sections)
	binary.LittleEndian.PutUint32(buf[0x1c:], 0)
	for i, s := range h.sec {
		base := 0x20 + 24*i
		binary.LittleEndian.PutUint64(buf[base:], s.off)
		binary.LittleEndian.PutUint64(buf[base+8:], s.length)
		binary.LittleEndian.PutUint64(buf[base+16:], s.sum)
	}
	binary.LittleEndian.PutUint64(buf[0x50:], v2HeaderSum(buf))
	return buf
}

// parseV2Header validates and decodes a v2HeaderSize-byte header block
// against the total file size (fileSize < 0 skips the bounds check, for
// streaming readers that do not know the size up front).
func parseV2Header(buf []byte, fileSize int64) (v2Header, error) {
	var h v2Header
	if len(buf) < v2HeaderSize {
		return h, malformed("truncated v2 header: %d bytes", len(buf))
	}
	if [8]byte(buf[:8]) != binaryMagic2 {
		return h, malformed("bad magic %q", buf[:8])
	}
	if got, want := binary.LittleEndian.Uint64(buf[0x50:]), v2HeaderSum(buf); got != want {
		return h, malformed("header checksum mismatch: file %#x, computed %#x", got, want)
	}
	h.n = int64(binary.LittleEndian.Uint64(buf[0x08:]))
	h.m = int64(binary.LittleEndian.Uint64(buf[0x10:]))
	if h.n < 0 || h.m < 0 || h.n > MaxVertices || h.m > 64*MaxVertices {
		return h, malformed("implausible header n=%d m=%d", h.n, h.m)
	}
	if ns := binary.LittleEndian.Uint32(buf[0x18:]); ns != v2Sections {
		return h, malformed("section table has %d sections, want %d", ns, v2Sections)
	}
	want := v2Layout(h.n, h.m)
	for i := range h.sec {
		base := 0x20 + 24*i
		h.sec[i] = v2Section{
			off:    binary.LittleEndian.Uint64(buf[base:]),
			length: binary.LittleEndian.Uint64(buf[base+8:]),
			sum:    binary.LittleEndian.Uint64(buf[base+16:]),
		}
		if h.sec[i].off != want[i].off || h.sec[i].length != want[i].length {
			return h, malformed("section %d at [%d,+%d), want [%d,+%d) (misaligned or inconsistent with n/m)",
				i, h.sec[i].off, h.sec[i].length, want[i].off, want[i].length)
		}
		if h.sec[i].off%v2Align != 0 {
			return h, malformed("section %d offset %d not %d-byte aligned", i, h.sec[i].off, v2Align)
		}
	}
	if fileSize >= 0 {
		last := h.sec[v2Sections-1]
		if need := int64(last.off + last.length); fileSize < need {
			return h, malformed("file is %d bytes, sections need %d", fileSize, need)
		}
	}
	return h, nil
}

// WriteBinaryV2 writes g in binary format version 2 (the mappable,
// section-checksummed layout). Prefer it over WriteBinary for graphs
// that will be served by bfsd or reloaded often; readers accept both.
func WriteBinaryV2(w io.Writer, g *graph.CSR) error {
	n, m := int64(g.NumVertices()), g.NumEdges()
	offsets := g.Offsets
	if len(offsets) == 0 {
		offsets = []int64{0}
	}
	h := v2Header{n: n, m: m, sec: v2Layout(n, m)}
	h.sec[0].sum, _ = scanOffsets(offsets, true)
	h.sec[1].sum, _ = scanEdges(g.Edges, true)
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(encodeV2Header(h)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, offsets); err != nil {
		return err
	}
	if pad := int(h.sec[1].off - (h.sec[0].off + h.sec[0].length)); pad > 0 {
		if _, err := bw.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	if m > 0 {
		if err := binary.Write(bw, binary.LittleEndian, g.Edges); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readBinaryV2 reads the stream form of a v2 file whose 8 magic bytes
// have already been consumed. Streaming always verifies section
// checksums and structural validity — it is the trust-establishing
// path; only LoadMapped can skip the checksums.
func readBinaryV2(br *bufio.Reader) (*graph.CSR, error) {
	hdr := make([]byte, v2HeaderSize)
	copy(hdr, binaryMagic2[:])
	if _, err := io.ReadFull(br, hdr[8:]); err != nil {
		return nil, readErr(err, "v2 header")
	}
	h, err := parseV2Header(hdr, -1)
	if err != nil {
		return nil, err
	}
	g := &graph.CSR{}
	if g.Offsets, err = readLE[int64](br, h.n+1); err != nil {
		return nil, readErr(err, "offsets")
	}
	if pad := int(h.sec[1].off - (h.sec[0].off + h.sec[0].length)); pad > 0 {
		if _, err := io.CopyN(io.Discard, br, int64(pad)); err != nil {
			return nil, readErr(err, "section padding")
		}
	}
	if g.Edges, err = readLE[int32](br, h.m); err != nil {
		return nil, readErr(err, "edges")
	}
	return g, verifyV2Sections(g, h, true)
}

// verifyV2Sections is the one verification pass over a materialized v2
// graph: each section is scanned once, in parallel chunks, for its
// checksum (unless withSums is false) and its CSR invariants together —
// Offsets[0] == 0, offsets non-decreasing, Offsets[n] == m and every
// target in [0, n). Checksum errors take precedence, offsets first. On
// a structural mismatch graph.Validate reruns only to name the first
// violation.
func verifyV2Sections(g *graph.CSR, h v2Header, withSums bool) error {
	offSum, monotone := scanOffsets(g.Offsets, withSums)
	if withSums && offSum != h.sec[0].sum {
		return malformed("offsets checksum mismatch: file %#x, computed %#x", h.sec[0].sum, offSum)
	}
	edgeSum, maxTarget := scanEdges(g.Edges, withSums)
	if withSums && edgeSum != h.sec[1].sum {
		return malformed("edges checksum mismatch: file %#x, computed %#x", h.sec[1].sum, edgeSum)
	}
	n, m := len(g.Offsets)-1, len(g.Edges)
	if !monotone || g.Offsets[0] != 0 || g.Offsets[n] != int64(m) || (m > 0 && int64(maxTarget) >= int64(n)) {
		if err := g.Validate(); err != nil {
			return malformed("%v", err)
		}
	}
	return nil
}
