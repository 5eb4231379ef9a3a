// Package mmio reads and writes graphs in the formats the paper's
// experiment pipeline needs:
//
//   - MatrixMarket coordinate format (.mtx), the format of the Florida
//     Sparse Matrix Collection graphs the paper uses (cage15, cage14,
//     freescale, wikipedia-2007, kkt-power), so the real files can be
//     dropped in next to the generated stand-ins;
//   - whitespace-separated edge-list text ("u v" per line), the common
//     interchange format of graph tools;
//   - a compact little-endian binary CSR with a checksummed header for
//     fast reload of generated graphs.
package mmio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"optibfs/internal/graph"
	"optibfs/internal/rng"
)

// The readers classify every failure into a two-kind taxonomy so
// callers (notably the bfsd daemon) can map errors to blame without
// string matching:
//
//   - ErrMalformed: the bytes themselves are wrong — truncated input,
//     bad magic, unparsable numbers, out-of-range indices, checksum
//     mismatches, implausible headers. The sender's fault (HTTP 400).
//   - ErrIO: the transport failed while the bytes were being read — a
//     scanner or reader error other than a clean truncation. The
//     server or network's fault (HTTP 500).
//
// Both are wrapped with %w, so errors.Is works through any layer of
// added context.
var (
	// ErrMalformed marks input rejected as structurally invalid.
	ErrMalformed = errors.New("malformed input")
	// ErrIO marks a read failure of the underlying stream.
	ErrIO = errors.New("read failed")
)

// malformed builds an ErrMalformed-wrapped error with context.
func malformed(format string, args ...any) error {
	return fmt.Errorf("mmio: %s: %w", fmt.Sprintf(format, args...), ErrMalformed)
}

// ioErr builds an ErrIO-wrapped error around a stream failure. The
// cause is wrapped too, so callers can still match concrete types
// (e.g. *http.MaxBytesError behind a scanner).
func ioErr(err error) error {
	return fmt.Errorf("mmio: %w: %w", err, ErrIO)
}

// readErr classifies a read failure: clean truncations (EOF where more
// bytes were promised) are the writer's fault and malformed; anything
// else is a stream failure.
func readErr(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return malformed("truncated input reading %s", what)
	}
	return fmt.Errorf("mmio: reading %s: %w: %w", what, err, ErrIO)
}

// readStep is readLE's first allocation and largest single read, in
// elements. The result then grows fourfold at a time, so a header that
// promises more data than its stream holds costs memory in proportion
// to the stream, not to the promise, which MaxVertices alone leaves at
// gigabytes.
const readStep = 1 << 16

// readLE reads n little-endian values from r into a slice that grows
// (capped at n) as the data arrives.
func readLE[T int32 | int64](r io.Reader, n int64) ([]T, error) {
	out := make([]T, 0, min(n, readStep))
	for int64(len(out)) < n {
		if len(out) == cap(out) {
			out = slices.Grow(out, int(min(n, 4*int64(len(out))))-len(out))
		}
		k := len(out) + int(min(n-int64(len(out)), int64(cap(out)-len(out)), readStep))
		if err := binary.Read(r, binary.LittleEndian, out[len(out):k]); err != nil {
			return nil, err
		}
		out = out[:k]
	}
	return out, nil
}

// ReadMatrixMarket parses a MatrixMarket coordinate-format stream into
// a directed CSR. Vertex ids in the file are 1-based per the format.
// For `symmetric`/`skew-symmetric` headers each entry also adds the
// reverse edge (except diagonal entries). Entry values (for non-pattern
// matrices) are parsed and discarded — BFS is unweighted.
func ReadMatrixMarket(r io.Reader) (*graph.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Header line: %%MatrixMarket matrix coordinate <field> <symmetry>
	if !sc.Scan() {
		return nil, malformed("empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, malformed("not a MatrixMarket matrix header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, malformed("only coordinate format is supported, got %q", header[2])
	}
	symmetric := false
	switch header[4] {
	case "general":
	case "symmetric", "skew-symmetric", "hermitian":
		symmetric = true
	default:
		return nil, malformed("unknown symmetry %q", header[4])
	}

	// Skip comments, find the size line.
	var rows, cols int64
	var entries int64
	for {
		if !sc.Scan() {
			return nil, malformed("missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, malformed("malformed size line %q", line)
		}
		var err error
		if rows, err = strconv.ParseInt(f[0], 10, 64); err != nil {
			return nil, malformed("bad row count: %v", err)
		}
		if cols, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, malformed("bad column count: %v", err)
		}
		if entries, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return nil, malformed("bad entry count: %v", err)
		}
		break
	}
	n := rows
	if cols > n {
		n = cols
	}
	if n > MaxVertices {
		return nil, malformed("%d vertices exceed MaxVertices (%d)", n, MaxVertices)
	}
	if entries < 0 || entries > 4*MaxVertices {
		return nil, malformed("implausible entry count %d", entries)
	}

	// The header's entry count is only a promise: start at readStep
	// and let append grow the slice as entries arrive, as readLE does,
	// so a short body that promises 2^30 entries costs what it holds.
	edges := make([]graph.Edge, 0, min(entries, readStep))
	var seen int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, malformed("malformed entry %q", line)
		}
		u, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, malformed("bad row index %q: %v", f[0], err)
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, malformed("bad column index %q: %v", f[1], err)
		}
		if u < 1 || u > rows || v < 1 || v > cols {
			return nil, malformed("entry (%d,%d) outside %dx%d", u, v, rows, cols)
		}
		seen++
		e := graph.Edge{Src: int32(u - 1), Dst: int32(v - 1)}
		edges = append(edges, e)
		if symmetric && e.Src != e.Dst {
			edges = append(edges, graph.Edge{Src: e.Dst, Dst: e.Src})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, ioErr(err)
	}
	if seen != entries {
		return nil, malformed("header promised %d entries, found %d", entries, seen)
	}
	g, err := graph.FromEdges(int32(n), edges, graph.BuildOptions{})
	if err != nil {
		return nil, malformed("%v", err)
	}
	return g, nil
}

// WriteMatrixMarket writes g as a general coordinate pattern matrix.
func WriteMatrixMarket(w io.Writer, g *graph.CSR) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", n, n, g.NumEdges()); err != nil {
		return err
	}
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u+1, v+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses "u v" pairs (0-based, whitespace separated, #
// comments allowed) into a CSR with n = max id + 1 vertices.
func ReadEdgeList(r io.Reader) (*graph.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	var maxID int64 = -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, malformed("edge list line %d malformed: %q", lineNo, line)
		}
		u, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, malformed("line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, malformed("line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 || u >= MaxVertices || v >= MaxVertices {
			return nil, malformed("line %d: vertex id outside [0, MaxVertices)", lineNo)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, graph.Edge{Src: int32(u), Dst: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, ioErr(err)
	}
	g, err := graph.FromEdges(int32(maxID+1), edges, graph.BuildOptions{})
	if err != nil {
		return nil, malformed("%v", err)
	}
	return g, nil
}

// WriteEdgeList writes g as 0-based "u v" lines.
func WriteEdgeList(w io.Writer, g *graph.CSR) error {
	bw := bufio.NewWriter(w)
	for u := int32(0); u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Binary CSR format:
//
//	magic   [8]byte  "OPTIBFS1"
//	n       int64    vertices
//	m       int64    edges
//	check   uint64   Mix64(n) ^ Mix64(m) ^ payload checksum
//	offsets [n+1]int64
//	edges   [m]int32
//
// All integers little-endian.
var binaryMagic = [8]byte{'O', 'P', 'T', 'I', 'B', 'F', 'S', '1'}

// MaxVertices bounds the vertex count a reader will accept before
// allocating CSR arrays, protecting against hostile or corrupt headers
// that declare absurd dimensions (a header alone would otherwise force
// an 8·n byte allocation). 2^28 vertices ≈ 2 GiB of offsets, well
// beyond the paper's largest graph; raise it for genuinely larger
// inputs.
var MaxVertices int64 = 1 << 28

// binChecksum hashes the structural content cheaply but order-sensitively.
func binChecksum(g *graph.CSR) uint64 {
	h := rng.Mix64(uint64(g.NumVertices())) ^ rng.Mix64(uint64(g.NumEdges())<<1)
	for i, off := range g.Offsets {
		h ^= rng.Mix64(uint64(off) + uint64(i)*0x9e37)
	}
	for i, e := range g.Edges {
		h ^= rng.Mix64(uint64(uint32(e)) + uint64(i)*0x85eb)
	}
	return h
}

// WriteBinary writes g in the binary CSR format.
func WriteBinary(w io.Writer, g *graph.CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := []uint64{uint64(g.NumVertices()), uint64(g.NumEdges()), binChecksum(g)}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	offsets := g.Offsets
	if offsets == nil {
		offsets = []int64{0}
	}
	if err := binary.Write(bw, binary.LittleEndian, offsets); err != nil {
		return err
	}
	if len(g.Edges) > 0 {
		if err := binary.Write(bw, binary.LittleEndian, g.Edges); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph written by WriteBinary or WriteBinaryV2
// (dispatching on the magic), verifying magic and checksums.
func ReadBinary(r io.Reader) (*graph.CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, readErr(err, "magic")
	}
	if magic == binaryMagic2 {
		return readBinaryV2(br)
	}
	if magic != binaryMagic {
		return nil, malformed("bad magic %q", magic[:])
	}
	var n, m int64
	var check uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, readErr(err, "header n")
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, readErr(err, "header m")
	}
	if err := binary.Read(br, binary.LittleEndian, &check); err != nil {
		return nil, readErr(err, "header checksum")
	}
	if n < 0 || m < 0 || n > MaxVertices || m > 64*MaxVertices {
		return nil, malformed("implausible header n=%d m=%d", n, m)
	}
	g := &graph.CSR{}
	var err error
	if g.Offsets, err = readLE[int64](br, n+1); err != nil {
		return nil, readErr(err, "offsets")
	}
	if g.Edges, err = readLE[int32](br, m); err != nil {
		return nil, readErr(err, "edges")
	}
	if got := binChecksum(g); got != check {
		return nil, malformed("checksum mismatch: file %#x, computed %#x", check, got)
	}
	if err := g.Validate(); err != nil {
		return nil, malformed("%v", err)
	}
	return g, nil
}
