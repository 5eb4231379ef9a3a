//go:build amd64 && !race

package core

// Relaxed stores for the lockfree protocols' benign-race words: plain
// word stores, one MOV each, exactly the stores of the paper's C code.
// amd64 is TSO — stores become visible in program order, so a reader
// that observes a later store also observes the earlier ones — and the
// Go memory model guarantees that a racy read of a word-sized location
// observes some value actually written to it, never a torn mix. The
// racing readers use atomic loads, which are plain MOVs on amd64 too,
// so the claim and work-stealing paths issue no locked instruction.
// sync/atomic's Store* would compile to XCHG: an implicitly LOCKed
// read-modify-write and a full fence on every claimed vertex and every
// popped slot. Race builds and other architectures use
// relaxed_atomic.go. See DESIGN.md "No locked instructions at the ISA
// level".

func storeRelaxed32(p *int32, v int32)    { *p = v }
func storeRelaxedU32(p *uint32, v uint32) { *p = v }
func storeRelaxed64(p *int64, v int64)    { *p = v }
func storeRelaxedU64(p *uint64, v uint64) { *p = v }
