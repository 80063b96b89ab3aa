package isl

import (
	"fmt"
	"testing"
)

func grid2D(n int) *Set {
	s := NewSet(NewSpace("S", 2))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Add(NewVec(i, j))
		}
	}
	return s
}

func BenchmarkSetUnion(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := grid2D(n), grid2D(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = x.Union(y)
			}
		})
	}
}

func BenchmarkMapCompose(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dom := grid2D(n)
			f := NewMap(dom.Space(), NewSpace("M", 2))
			g := NewMap(NewSpace("M", 2), NewSpace("T", 2))
			dom.Foreach(func(v Vec) bool {
				f.Add(v, NewVec(v[0], 2*v[1]))
				g.Add(NewVec(v[0], 2*v[1]), v)
				return true
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Compose(g, f)
			}
		})
	}
}

// BenchmarkMapInverse transposes an injective access-like relation (the
// shape of a write access: one output per input, outputs out of input
// order). ns/op should grow with the pair count only — the per-pair
// rank lookup is a table read, not a binary search.
func BenchmarkMapInverse(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dom := grid2D(n)
			m := NewMap(dom.Space(), NewSpace("M", 2))
			dom.Foreach(func(v Vec) bool {
				m.Add(v, NewVec(v[1], v[0]))
				return true
			})
			m.Freeze()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Inverse()
			}
		})
	}
}

func BenchmarkPrefixLexmax(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dom := grid2D(n)
			m := NewMap(dom.Space(), NewSpace("I", 2))
			dom.Foreach(func(v Vec) bool {
				m.Add(v, NewVec(v[1], v[0]))
				return true
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = PrefixLexmax(m, dom)
			}
		})
	}
}

func BenchmarkNearestGE(b *testing.B) {
	dom := grid2D(64)
	leaders := dom.Filter(func(v Vec) bool { return v[1]%4 == 0 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NearestGE(dom, leaders)
	}
}

func BenchmarkLexmaxPerIn(b *testing.B) {
	dom := grid2D(64)
	m := NewMap(dom.Space(), NewSpace("I", 2))
	dom.Foreach(func(v Vec) bool {
		m.Add(v, NewVec(v[0]/2, v[1]/2))
		m.Add(v, NewVec(v[1]/2, v[0]/2))
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LexmaxPerIn()
	}
}

func BenchmarkSetElementsSorted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := grid2D(32)
		_ = s.Elements()
	}
}
