//go:build !amd64 || race

package core

import "sync/atomic"

// Relaxed stores, sync/atomic form. Race builds keep the protocol on
// sync/atomic so the race detector goes on checking it with no
// annotations; architectures without amd64's total store order keep
// it so the payload-before-stamp publication order holds (arm64's
// atomic store is a store-release, STLR, which is not a
// read-modify-write either). See relaxed_plain.go.

func storeRelaxed32(p *int32, v int32)    { atomic.StoreInt32(p, v) }
func storeRelaxedU32(p *uint32, v uint32) { atomic.StoreUint32(p, v) }
func storeRelaxed64(p *int64, v int64)    { atomic.StoreInt64(p, v) }
func storeRelaxedU64(p *uint64, v uint64) { atomic.StoreUint64(p, v) }
