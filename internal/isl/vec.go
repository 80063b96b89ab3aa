package isl

import (
	"sort"
	"strconv"
	"strings"
)

// Vec is an integer tuple, one point of an iteration domain or of a
// memory-index space. Vectors are compared lexicographically.
type Vec []int

// NewVec returns a fresh vector holding the given coordinates.
func NewVec(coords ...int) Vec {
	v := make(Vec, len(coords))
	copy(v, coords)
	return v
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Cmp compares v and w lexicographically and returns -1, 0, or +1.
// Both vectors must have the same dimension.
func (v Vec) Cmp(w Vec) int {
	if len(v) != len(w) {
		panic("isl: Vec.Cmp dimension mismatch: " + v.String() + " vs " + w.String())
	}
	for i := range v {
		switch {
		case v[i] < w[i]:
			return -1
		case v[i] > w[i]:
			return 1
		}
	}
	return 0
}

// Eq reports whether v and w are identical tuples.
func (v Vec) Eq(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Concat returns the concatenation of v and w as a new vector.
func (v Vec) Concat(w Vec) Vec {
	r := make(Vec, 0, len(v)+len(w))
	r = append(r, v...)
	r = append(r, w...)
	return r
}

// String renders v as "[a, b, ...]".
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(x))
	}
	b.WriteByte(']')
	return b.String()
}

// LexMin returns the lexicographically smaller of v and w.
func LexMin(v, w Vec) Vec {
	if v.Cmp(w) <= 0 {
		return v
	}
	return w
}

// sortVecs sorts vs in place in lexicographic order.
func sortVecs(vs []Vec) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Cmp(vs[j]) < 0 })
}
