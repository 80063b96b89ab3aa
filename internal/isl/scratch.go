package isl

import (
	"sync"
	"sync/atomic"
)

// scratch is a bundle of reusable buffers the columnar relation
// algebra borrows for one operation: id accumulators for k-way merges
// (a, b), a permutation buffer for normalization (perm), and a dense
// id-indexed table (rank) for operations that need an O(1) id → position
// lookup. Buffers grow on demand and keep their capacity when returned,
// so a steady detection workload settles into zero scratch allocations.
//
// Lifecycle: every operation that needs scratch calls getScratch and
// releases it before returning, so buffers never outlive one isl call
// and a detection phase ends with every buffer back in the pool. The
// pool is a sync.Pool: memory is reclaimed by the GC between
// detections, and the reuse rate is observable through ScratchStats
// (surfaced as the detect.scratch_reuse counter, see
// docs/OBSERVABILITY.md).
type scratch struct {
	a, b []uint32
	perm []uint32
	rank []int32
	used bool // set after first use; marks a pooled (reused) buffer
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

var (
	scratchGets   atomic.Uint64
	scratchReuses atomic.Uint64
)

// getScratch borrows a scratch bundle from the pool.
func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	scratchGets.Add(1)
	if s.used {
		scratchReuses.Add(1)
	}
	s.used = true
	return s
}

// rankTable returns a table indexable by every id below n. Its contents
// are stale — whatever the previous borrower left — so a caller reads
// only the entries it has written itself, which is what keeps the
// table's cost proportional to the ids touched rather than to n.
func (s *scratch) rankTable(n int) []int32 {
	if cap(s.rank) < n {
		s.rank = make([]int32, n)
	}
	return s.rank[:n]
}

// release returns s to the pool. The caller must not touch s or any
// slice borrowed from it afterwards.
func (s *scratch) release() {
	s.a, s.b, s.perm = s.a[:0], s.b[:0], s.perm[:0]
	scratchPool.Put(s)
}

// ScratchStats reports how many scratch-buffer acquisitions the
// relation algebra has made process-wide and how many of those reused
// a pooled buffer instead of allocating a fresh one. The counters are
// monotone; callers diff them around a workload to measure its reuse
// rate.
func ScratchStats() (gets, reuses uint64) {
	return scratchGets.Load(), scratchReuses.Load()
}
