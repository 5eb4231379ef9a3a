// Package stats provides the per-worker instrumentation counters used by
// every BFS runtime in this repository, plus small numeric aggregation
// helpers for the experiment harness.
//
// Counters are written by exactly one worker goroutine each (no sharing),
// so they need no synchronization; PaddedCounters adds cache-line padding
// so adjacent workers' counters never share a line (false sharing would
// perturb the very measurements the counters exist to take). Workers'
// counters are merged after the level barrier, where the happens-before
// edge makes plain reads safe.
package stats

import (
	"math"
	"sort"
	"unsafe"
)

// Counters instruments one worker's activity during a BFS run. The
// steal-failure taxonomy mirrors the paper's Table VI columns.
type Counters struct {
	// Work volume.
	VerticesPopped int64 // queue pops, including duplicate explorations
	EdgesScanned   int64 // adjacency entries examined
	Discovered     int64 // vertices this worker newly discovered

	// Batched frontier publication (core.Options.PublishBlock).
	BlocksFlushed  int64 // discovery blocks published to the next-level queue
	PartialFlushes int64 // blocks published below capacity (level-barrier flushes)

	// Centralized-queue machinery.
	Fetches      int64 // segments successfully fetched
	FetchRetries int64 // fetch attempts that found no work and advanced/retried

	// Lock usage (locked variants only).
	LockAcquisitions int64 // successful Lock/TryLock acquisitions
	LockTryFails     int64 // TryLock attempts that failed

	// Work stealing, successful and failed by cause (Table VI).
	StealAttempts     int64
	StealSuccess      int64
	StealVictimLocked int64 // locked variants: victim's mutex was held
	StealVictimIdle   int64 // victim had quit / had no segment
	StealTooSmall     int64 // segment below the minimum steal size
	StealStale        int64 // segment valid but already explored
	StealInvalid      int64 // sanity check f' < r' <= origR failed

	// Simulated NUMA accounting.
	StealSameSocket  int64
	StealCrossSocket int64

	// Scale-free two-phase machinery.
	HotVertices int64 // high-degree vertices deferred to phase 2
	HotChunks   int64 // adjacency chunks processed in phase 2

	// Direction-optimizing traversal accounting (Beamer-style hybrid).
	TopDownLevels  int64
	BottomUpLevels int64

	// Atomic read-modify-write operations (CAS / fetch-add) issued.
	// Always 0 for the paper's algorithms — locked variants use mutexes
	// and lockfree variants use plain loads/stores — and nonzero for
	// Baseline2, which is built on CAS bitmaps and fetch-add cursors.
	AtomicRMW int64
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.VerticesPopped += other.VerticesPopped
	c.EdgesScanned += other.EdgesScanned
	c.Discovered += other.Discovered
	c.BlocksFlushed += other.BlocksFlushed
	c.PartialFlushes += other.PartialFlushes
	c.Fetches += other.Fetches
	c.FetchRetries += other.FetchRetries
	c.LockAcquisitions += other.LockAcquisitions
	c.LockTryFails += other.LockTryFails
	c.StealAttempts += other.StealAttempts
	c.StealSuccess += other.StealSuccess
	c.StealVictimLocked += other.StealVictimLocked
	c.StealVictimIdle += other.StealVictimIdle
	c.StealTooSmall += other.StealTooSmall
	c.StealStale += other.StealStale
	c.StealInvalid += other.StealInvalid
	c.StealSameSocket += other.StealSameSocket
	c.StealCrossSocket += other.StealCrossSocket
	c.HotVertices += other.HotVertices
	c.HotChunks += other.HotChunks
	c.TopDownLevels += other.TopDownLevels
	c.BottomUpLevels += other.BottomUpLevels
	c.AtomicRMW += other.AtomicRMW
}

// Sub subtracts other from c field by field. It turns two cumulative
// snapshots taken at level barriers into the per-level delta the engine
// timelines record.
func (c *Counters) Sub(other *Counters) {
	c.VerticesPopped -= other.VerticesPopped
	c.EdgesScanned -= other.EdgesScanned
	c.Discovered -= other.Discovered
	c.BlocksFlushed -= other.BlocksFlushed
	c.PartialFlushes -= other.PartialFlushes
	c.Fetches -= other.Fetches
	c.FetchRetries -= other.FetchRetries
	c.LockAcquisitions -= other.LockAcquisitions
	c.LockTryFails -= other.LockTryFails
	c.StealAttempts -= other.StealAttempts
	c.StealSuccess -= other.StealSuccess
	c.StealVictimLocked -= other.StealVictimLocked
	c.StealVictimIdle -= other.StealVictimIdle
	c.StealTooSmall -= other.StealTooSmall
	c.StealStale -= other.StealStale
	c.StealInvalid -= other.StealInvalid
	c.StealSameSocket -= other.StealSameSocket
	c.StealCrossSocket -= other.StealCrossSocket
	c.HotVertices -= other.HotVertices
	c.HotChunks -= other.HotChunks
	c.TopDownLevels -= other.TopDownLevels
	c.BottomUpLevels -= other.BottomUpLevels
	c.AtomicRMW -= other.AtomicRMW
}

// FailedSteals returns the total failed steal attempts across the
// failure taxonomy.
func (c *Counters) FailedSteals() int64 {
	return c.StealVictimLocked + c.StealVictimIdle + c.StealTooSmall + c.StealStale + c.StealInvalid
}

// PaddedCounters is Counters padded out to a multiple of the cache-line
// size so per-worker slices do not false-share. The pad length is
// derived from the struct size itself, so adding a counter field can
// never silently misalign the slice.
type PaddedCounters struct {
	Counters
	_ [(cacheLine - unsafe.Sizeof(Counters{})%cacheLine) % cacheLine]byte
}

// cacheLine is the alignment target for per-worker counter slots.
const cacheLine = 64

// Compile-time assertion that PaddedCounters fills whole cache lines:
// the composite literal below only has type [0]byte when
// Sizeof(PaddedCounters) % cacheLine == 0.
var _ [0]byte = [unsafe.Sizeof(PaddedCounters{}) % cacheLine]byte{}

// NewPerWorker allocates padded counters for p workers.
func NewPerWorker(p int) []PaddedCounters {
	return make([]PaddedCounters, p)
}

// Sum merges a per-worker slice into one Counters value.
func Sum(per []PaddedCounters) Counters {
	var total Counters
	for i := range per {
		total.Add(&per[i].Counters)
	}
	return total
}

// Summary holds order statistics of a sample, as reported in tables.
type Summary struct {
	N            int
	Mean, Stddev float64
	Min, Max     float64
	Median       float64
	P05, P95     float64
	Total        float64
}

// Summarize computes a Summary of xs. An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, x := range sorted {
		s.Total += x
	}
	s.Mean = s.Total / float64(s.N)
	var varsum float64
	for _, x := range sorted {
		d := x - s.Mean
		varsum += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(varsum / float64(s.N-1))
	}
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-quantile of ascending sorted data by linear
// interpolation between the two nearest order statistics (position
// q·(n-1)), so the 0.5-quantile of an even-length sample is the mean of
// its two middle values. An empty sample yields 0.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TEPS returns traversed-edges-per-second given edges traversed and
// elapsed seconds; 0 if seconds is non-positive.
func TEPS(edges int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(edges) / seconds
}
