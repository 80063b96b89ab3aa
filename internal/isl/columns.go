package isl

import (
	"slices"
	"sort"
)

// Merge-scan kernels of the columnar backend. An id column is a
// []uint32 of interned ids sorted ascending in the lexicographic order
// of their canonical vectors; vt is the owning table's snapshot (see
// internTable.snapshot), so vt[id] is the vector of id. Interning is
// canonical — equal vectors carry equal ids — which makes the order
// strict: comparisons first check id equality (one integer compare)
// and only then fall back to the vector walk.

// cmpIDs orders two ids of one table by their vectors.
func cmpIDs(vt []Vec, a, b uint32) int {
	if a == b {
		return 0
	}
	return vt[a].Cmp(vt[b])
}

// idsSortedByVec reports whether ids is strictly ascending (sorted and
// duplicate-free) under vt's order.
func idsSortedByVec(ids []uint32, vt []Vec) bool {
	for i := 1; i < len(ids); i++ {
		if cmpIDs(vt, ids[i-1], ids[i]) >= 0 {
			return false
		}
	}
	return true
}

// sortIDsByVec sorts ids in place by vector order. Duplicates (equal
// ids) end up adjacent.
func sortIDsByVec(ids []uint32, vt []Vec) {
	slices.SortFunc(ids, func(a, b uint32) int { return cmpIDs(vt, a, b) })
}

// appendDedup appends a sorted-with-possible-duplicates column to dst,
// dropping adjacent duplicates. Deduplication is scoped to the ids this
// call appends — dst's pre-existing tail is never compared, so a CSR
// builder may append run after run without runs swallowing each other's
// boundary elements.
func appendDedup(dst, src []uint32) []uint32 {
	return appendDedupFrom(dst, len(dst), src)
}

// appendDedupFrom is appendDedup comparing against dst's tail only
// beyond index base (the start of the current run).
func appendDedupFrom(dst []uint32, base int, src []uint32) []uint32 {
	for _, id := range src {
		if n := len(dst); n > base && dst[n-1] == id {
			continue
		}
		dst = append(dst, id)
	}
	return dst
}

// mergeUnionIDs appends the sorted union of columns a and b to dst.
// Inputs may contain adjacent duplicates; the appended portion never
// does. Like appendDedup, deduplication never reaches into dst's
// pre-existing tail.
func mergeUnionIDs(dst, a, b []uint32, vt []Vec) []uint32 {
	base := len(dst)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var id uint32
		switch c := cmpIDs(vt, a[i], b[j]); {
		case c < 0:
			id = a[i]
			i++
		case c > 0:
			id = b[j]
			j++
		default:
			id = a[i]
			i++
			j++
		}
		if n := len(dst); n > base && dst[n-1] == id {
			continue
		}
		dst = append(dst, id)
	}
	dst = appendDedupFrom(dst, base, a[i:])
	return appendDedupFrom(dst, base, b[j:])
}

// mergeIntersectIDs appends the sorted intersection of strictly-sorted
// columns a and b to dst.
func mergeIntersectIDs(dst, a, b []uint32, vt []Vec) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpIDs(vt, a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// mergeSubtractIDs appends a \ b to dst for strictly-sorted columns.
func mergeSubtractIDs(dst, a, b []uint32, vt []Vec) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpIDs(vt, a[i], b[j]); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			j++
		default:
			i++
			j++
		}
	}
	return append(dst, a[i:]...)
}

// subsetIDs reports whether strictly-sorted column a is contained in
// strictly-sorted column b.
func subsetIDs(a, b []uint32, vt []Vec) bool {
	j := 0
	for _, id := range a {
		for j < len(b) && cmpIDs(vt, b[j], id) < 0 {
			j++
		}
		if j >= len(b) || b[j] != id {
			return false
		}
		j++
	}
	return true
}

// searchIDs returns the first index in the strictly-sorted column ids
// (searching from lo) whose vector is ≥ v.
func searchIDs(ids []uint32, lo int, v Vec, vt []Vec) int {
	return lo + sort.Search(len(ids)-lo, func(k int) bool {
		return vt[ids[lo+k]].Cmp(v) >= 0
	})
}
