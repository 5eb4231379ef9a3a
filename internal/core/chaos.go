package core

// Chaos hooks: a nil-by-default fault-injection interface that fires at
// the optimistic protocols' deliberately racy points. The paper's
// correctness argument is that torn (q, f, r) combinations, backward-
// moving fronts, and duplicated dispatch units are all benign; these
// hooks exist so that a test or the internal/chaos soak harness can
// stretch exactly those read→write windows on demand and make the rare
// interleavings (stale steals, overlapping segments, duplicate phase-2
// units) reproducible from a seed instead of waiting for the scheduler
// to stumble into them. With Options.Chaos nil — the default — each
// instrumented point costs a single predictable nil-check branch.

// ChaosPoint identifies one instrumented racy point in the optimistic
// protocols. Every point sits inside a read→write window whose race
// the paper argues is benign; delaying a worker there widens the
// window and provokes the racy outcome.
type ChaosPoint uint8

// Instrumented racy points. The Value passed to ChaosHook.At is the
// index the pending store is about to publish (segment midpoint, slot
// index, advanced front, queue index, or phase-2 unit).
const (
	// ChaosStealPublish fires in stealLockfree after the thief's
	// (q, f, r) snapshot passed the validity checks and before the
	// descriptor stores (victim shrink, then thief publication).
	// Delaying here lets the victim or another thief race past the
	// midpoint, producing a stale steal. Value is the midpoint.
	ChaosStealPublish ChaosPoint = iota
	// ChaosSlotZero fires in drainOwnLean (the lockfree work-stealing
	// drain) and exploreSegmentLockfree between reading a queue slot
	// and zeroing it. Delaying here lets
	// a thief or an overlapping segment pop the same slot, producing
	// a duplicate exploration. Value is the slot index.
	ChaosSlotZero
	// ChaosDrainAdvance fires in drainOwnLean between zeroing a slot
	// and publishing the advanced front, the window in which the
	// worker's descriptor understates its progress; it fires before
	// every publication, the drain's final one included. Value is the
	// front about to be published.
	ChaosDrainAdvance
	// ChaosFrontStore fires in the decentralized fetch between
	// reading a queue's front and storing the advanced front.
	// Delaying here hands two workers the same segment or moves the
	// front backwards (paper Figure 1). Value is the front about to
	// be stored.
	ChaosFrontStore
	// ChaosPoolStore fires in the decentralized fetch before the
	// pool's shared queue index q is stored, the window in which q
	// can move backwards past queues another worker already drained.
	// Value is the queue index about to be stored.
	ChaosPoolStore
	// ChaosPhase2Advance fires in the Phase2Stealing dispatch between
	// loading and storing the shared phase-2 cursor; delaying here
	// duplicates (vertex, chunk) units. Value is the unit taken.
	ChaosPhase2Advance
	// ChaosBlockFlush fires in flushBlock between copying a discovery
	// block into the shared output queue and publishing the advanced
	// tail index, the window in which the queue holds vertices no
	// other worker can yet see. Delaying here stretches the
	// partially-published state that steal descriptors and the level
	// flush audit must tolerate. Value is the tail about to be
	// published.
	ChaosBlockFlush
	// ChaosStall fires once per worker per level, at the top of the
	// worker's level inside the recovery barrier (workerLevel), in
	// every parallel family. Unlike the racy-window points above it
	// does not instrument a protocol race; it is the uniform place the
	// chaos harness injects *malign* faults — forced stalls (long
	// sleeps the watchdog must detect) and panics (which the recovery
	// barrier must isolate). Value is the BFS level.
	ChaosStall
	// ChaosDirectionFlip fires in a hybrid engine's barrier-time
	// direction step (hybridAdvance), after the alpha/beta decision and
	// before the frontier representation converts — the place a hook
	// implementing ChaosDirectionController can override the decision
	// and force a switch at a hostile boundary. Value is the BFS level
	// just completed. Unlike every other point this one runs on the
	// driver goroutine, in the barrier step between levels; that step
	// runs under the same recovery barrier as the workers, so a panic
	// here poisons the run like a worker panic. A stall here holds up
	// the driver, not a worker, and the watchdog suspends its window
	// while the driver holds the barrier, so it is never declared (the
	// standard internal/chaos injector skips its malign faults for this
	// point).
	ChaosDirectionFlip
	// NumChaosPoints is the number of instrumented points, not a
	// point itself; it sizes per-point tables.
	NumChaosPoints
)

// String names the chaos point for profiles and logs.
func (p ChaosPoint) String() string {
	switch p {
	case ChaosStealPublish:
		return "steal-publish"
	case ChaosSlotZero:
		return "slot-zero"
	case ChaosDrainAdvance:
		return "drain-advance"
	case ChaosFrontStore:
		return "front-store"
	case ChaosPoolStore:
		return "pool-store"
	case ChaosPhase2Advance:
		return "phase2-advance"
	case ChaosBlockFlush:
		return "block-flush"
	case ChaosStall:
		return "stall"
	case ChaosDirectionFlip:
		return "direction-flip"
	default:
		return "unknown"
	}
}

// ChaosHook receives a callback every time a worker passes an
// instrumented racy point. Implementations typically delay the worker
// (scheduler yields, spinning) with seeded per-worker randomness; they
// must be safe for concurrent use from all worker goroutines and must
// not touch the run's shared state. See internal/chaos for the
// standard injector.
type ChaosHook interface {
	// At is called at chaos point `point` by worker `worker`; value
	// is the point-specific index documented on the ChaosPoint
	// constants.
	At(point ChaosPoint, worker int, value int64)
}

// ChaosLevelAuditor is optionally implemented by a ChaosHook to
// receive the per-level queue audit of the slot-zeroing (lockfree)
// variants: after each level barrier, `unconsumed` is the number of
// input-queue slots that were never popped. The protocol guarantees
// every slot is consumed, so any nonzero count is an invariant
// violation. `level` is the depth of the frontier just consumed.
// Called between level barriers, never concurrently with workers.
type ChaosLevelAuditor interface {
	// LevelEnd reports the unconsumed-slot count for one level.
	LevelEnd(level int32, unconsumed int64)
}

// ChaosFlushAuditor is optionally implemented by a ChaosHook to
// receive the per-level publication audit of batched frontier
// publication: after each level barrier, `unpublished` counts output
// entries the barrier should have flushed but did not — vertices still
// sitting in a worker's private discovery block plus output-queue
// entries beyond the published tail index. The level barrier flushes
// every partial block before workers quiesce, so any nonzero count is
// an invariant violation (a vertex would silently skip its level).
// Called between level barriers, never concurrently with workers.
type ChaosFlushAuditor interface {
	// FlushEnd reports the unpublished-entry count for one level.
	FlushEnd(level int32, unpublished int64)
}

// ChaosDirectionController is optionally implemented by a ChaosHook to
// override the hybrid alpha/beta decision at each level barrier
// (ChaosDirectionFlip): it receives the level just completed and the
// direction the heuristics chose for the next level, and returns the
// direction to actually run. Forcing flips at hostile boundaries
// (empty frontiers, levels mid-growth) exercises the representation
// conversions the heuristics would rarely take. Called single-threaded
// between level barriers, never concurrently with workers; the same
// caveats as ChaosDirectionFlip apply.
type ChaosDirectionController interface {
	// DirectionChoice returns whether the next level runs bottom-up.
	DirectionChoice(level int32, bottomUp bool) bool
}

// chaosAt forwards to the installed hook; the nil-check is the entire
// disabled-mode cost and keeps the call inlinable on the hot paths.
func (st *state) chaosAt(point ChaosPoint, worker int, value int64) {
	if st.chaos != nil {
		st.chaos.At(point, worker, value)
	}
}

// auditLevel runs the per-level invariant audits after a level barrier.
// The slot audit counts unconsumed input-queue slots; only the runners
// that zero slots as they pop (the lockfree variants) enable it — the
// locked variants consume via front pointers and leave slots intact,
// so the count would be meaningless there. The flush audit applies to
// every runner that discovers through blocks (all of them): it counts
// entries the barrier should have published but did not, either still
// in a private discovery block or in an output queue beyond its
// published tail. Runs between barriers, so plain reads of the queue
// buffers are safe.
func (st *state) auditLevel() {
	if st.levelAudit != nil && st.slotAudit {
		var unconsumed int64
		for i := range st.in {
			q := &st.in[i]
			for _, s := range q.buf[:q.origR] {
				if s != emptySlot {
					unconsumed++
				}
			}
		}
		st.levelAudit.LevelEnd(st.level, unconsumed)
	}
	if st.flushAudit != nil {
		var unpublished int64
		for i := range st.out {
			q := &st.out[i]
			unpublished += int64(len(q.buf)) - q.tail
			unpublished += int64(len(st.blk[i]))
		}
		st.flushAudit.FlushEnd(st.level, unpublished)
	}
}
