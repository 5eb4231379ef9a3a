package mmio

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sync/atomic"
	"unsafe"

	"optibfs/internal/graph"
)

// MapOptions configures LoadMapped.
type MapOptions struct {
	// SkipVerify skips the section-checksum and structural-validation
	// scans, making the load cost O(page faults): only the header and
	// two boundary words are touched eagerly, and graph pages fault in
	// as the engine first reads them. Use only for files this process
	// (or another trusted writer) produced; a corrupt offsets array
	// read unverified can panic a worker at query time (the serving
	// layer's panic isolation contains, but does not excuse, that).
	SkipVerify bool
}

// MappedGraph owns a graph whose Offsets/Edges arrays alias a
// memory-mapped v2 binary file. The mapping stays live until every
// reference is released; anything that captured the CSR (an engine
// fleet, say) must hold a reference for as long as it might read the
// arrays — reading after the final Release faults.
//
// The reference count starts at 1 (the load itself). Retain/Release
// are cheap atomics; Release of the last reference unmaps.
type MappedGraph struct {
	g    *graph.CSR
	data []byte // nil when the heap fallback loaded the graph
	refs atomic.Int64
	// unmapped is set exactly once, when the final reference goes away
	// (for the heap fallback there is nothing to unmap, but the flag
	// still records lifecycle end so tests can observe it).
	unmapped atomic.Bool
}

// LoadMapped opens a binary CSR file and maps it read-only, returning
// a graph whose arrays alias the mapping (zero copy). Files in the v1
// format, or platforms without mmap (or with big-endian byte order),
// fall back to a fully-verified heap load — the graph works the same
// but Mapped() reports false.
//
// Error taxonomy: a path that does not exist, is a directory, or is
// unreadable by permission is the requester's fault (ErrMalformed, as
// are all format violations); other filesystem failures are ErrIO.
func LoadMapped(path string, opt MapOptions) (*MappedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, pathErr(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, pathErr(err)
	}
	if st.IsDir() {
		return nil, malformed("%s is a directory", path)
	}
	size := st.Size()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, readErr(err, "magic")
	}
	if magic != binaryMagic2 || !hostLittleEndian() || !mmapSupported {
		return loadHeap(f)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, ioErr(err)
	}
	mg, err := newMapped(data, size, opt)
	if err != nil {
		_ = munmapFile(data)
		return nil, err
	}
	return mg, nil
}

// pathErr classifies an open/stat failure per the taxonomy.
func pathErr(err error) error {
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) || errors.Is(err, fs.ErrInvalid) {
		return malformed("%v", err)
	}
	return ioErr(err)
}

// loadHeap is the copying fallback: rewind and run the streaming
// reader (which always verifies checksums and structure).
func loadHeap(f *os.File) (*MappedGraph, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, ioErr(err)
	}
	g, err := ReadBinary(f)
	if err != nil {
		return nil, err
	}
	mg := &MappedGraph{g: g}
	mg.refs.Store(1)
	return mg, nil
}

// newMapped builds the zero-copy graph view over mapped file bytes.
func newMapped(data []byte, size int64, opt MapOptions) (*MappedGraph, error) {
	if int64(len(data)) < v2HeaderSize {
		return nil, malformed("file is %d bytes, v2 header needs %d", len(data), v2HeaderSize)
	}
	h, err := parseV2Header(data[:v2HeaderSize], size)
	if err != nil {
		return nil, err
	}
	// The mapping is page-aligned and the section offsets are 64-byte
	// aligned, so these casts produce properly aligned slices.
	offsets := unsafe.Slice((*int64)(unsafe.Pointer(&data[h.sec[0].off])), h.n+1)
	var edgesArr []int32
	if h.m > 0 {
		edgesArr = unsafe.Slice((*int32)(unsafe.Pointer(&data[h.sec[1].off])), h.m)
	}
	g := &graph.CSR{Offsets: offsets, Edges: edgesArr}
	// Boundary spot checks are always on: two page touches that catch
	// the most common way a stale/foreign file slips past the header.
	if offsets[0] != 0 {
		return nil, malformed("Offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[h.n] != h.m {
		return nil, malformed("Offsets[n] = %d, want m = %d", offsets[h.n], h.m)
	}
	if !opt.SkipVerify {
		if err := verifyV2Sections(g, h); err != nil {
			return nil, err
		}
	}
	mg := &MappedGraph{g: g, data: data}
	mg.refs.Store(1)
	return mg, nil
}

// Graph returns the loaded graph. The caller must hold a reference.
func (m *MappedGraph) Graph() *graph.CSR { return m.g }

// Mapped reports whether the graph aliases a live memory mapping
// (false for heap-fallback loads, where lifecycle is only bookkeeping).
func (m *MappedGraph) Mapped() bool { return m.data != nil && !m.unmapped.Load() }

// Unmapped reports whether the final reference has been released.
func (m *MappedGraph) Unmapped() bool { return m.unmapped.Load() }

// Retain adds a reference. Callers may only retain while holding an
// existing reference (the load's own reference counts).
func (m *MappedGraph) Retain() {
	if m.refs.Add(1) <= 1 {
		panic("mmio: Retain after final Release")
	}
}

// Release drops a reference; the last one unmaps the file. Releasing
// more times than retained panics — the double release would otherwise
// silently unmap under a live reader.
func (m *MappedGraph) Release() error {
	n := m.refs.Add(-1)
	if n < 0 {
		panic("mmio: Release without matching Retain")
	}
	if n > 0 {
		return nil
	}
	m.unmapped.Store(true)
	if m.data != nil {
		data := m.data
		m.data = nil
		if err := munmapFile(data); err != nil {
			return ioErr(err)
		}
	}
	return nil
}

// hostLittleEndian reports whether this machine stores integers
// little-endian (the v2 on-disk order; big-endian hosts take the
// byte-swapping heap path).
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}
