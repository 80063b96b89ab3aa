package isl

import (
	"fmt"
	"math/rand"
	"testing"
)

// positionColumnRef is PositionColumn by definition: Lookup each element
// of in, take the first (lexmin) image, and find it in out's elements.
func positionColumnRef(m *Map, in, out *Set) []int32 {
	outs := out.Elements()
	col := make([]int32, 0, in.Card())
	for _, v := range in.Elements() {
		p := int32(-1)
		if imgs := m.Lookup(v); len(imgs) > 0 {
			for k, w := range outs {
				if w.Eq(imgs[0]) {
					p = int32(k)
					break
				}
			}
		}
		col = append(col, p)
	}
	return col
}

func checkPositionColumn(t *testing.T, what string, m *Map, in, out *Set) {
	t.Helper()
	got, want := m.PositionColumn(in, out), positionColumnRef(m, in, out)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: entry %d (%v) = %d, want %d\nmap %v\nin %v\nout %v",
				what, j, in.Elements()[j], got[j], want[j], m, in, out)
		}
	}
}

// TestPositionColumnMatchesLookup drives random relations that are not
// total, multi-valued (the lexmin image wins), and map outside out,
// against the Lookup-based reference. Each round also interns fresh
// output vectors after out is built, so the position table serves ids
// it holds only stale entries for.
func TestPositionColumnMatchesLookup(t *testing.T) {
	for round := 0; round < 60; round++ {
		r := rand.New(rand.NewSource(int64(7100 + round)))
		dim := 1 + r.Intn(3)
		extent := 2 + r.Intn(5)
		sp := NewSpace(fmt.Sprintf("PC%d", round), dim)
		m := NewMap(sp, sp)
		in, out := NewSet(sp), NewSet(sp)
		for step := 0; step < 40; step++ {
			v := randVec(r, dim, extent)
			switch r.Intn(4) {
			case 0, 1:
				for k := r.Intn(3); k >= 0; k-- { // one to three images
					m.Add(v, randVec(r, dim, extent))
				}
			case 2:
				in.Add(v)
			case 3:
				out.Add(v)
			}
			if r.Intn(3) == 0 {
				in.Add(v)
			}
		}
		checkPositionColumn(t, fmt.Sprintf("round %d", round), m, in, out)
		// Self-columns, the shape detection reads.
		checkPositionColumn(t, fmt.Sprintf("round %d (in, in)", round), m, in, in)

		// Images interned only now: out has never seen them, and the
		// table positions of their ids hold whatever the previous
		// borrower wrote.
		for _, v := range in.Elements() {
			w := v.Clone()
			w[0] += extent + r.Intn(3)
			m.Add(v, w)
		}
		checkPositionColumn(t, fmt.Sprintf("round %d (late ids)", round), m, in, out)
	}
}

// TestPositionColumnStaleTable pins the stale-entry case directly: a
// first call fills the pooled table for every id of a wide out set, and
// a second call against a narrow set built earlier must not take those
// leftovers for hits.
func TestPositionColumnStaleTable(t *testing.T) {
	sp := NewSpace("PCstale", 1)
	narrow := SetOf(sp, NewVec(0), NewVec(2), NewVec(4))
	in, wide := NewSet(sp), NewSet(sp)
	m := NewMap(sp, sp)
	for x := 0; x < 10; x++ {
		in.Add(NewVec(x))
		wide.Add(NewVec(x))
		m.Add(NewVec(x), NewVec(x))
	}
	checkPositionColumn(t, "wide", m, in, wide)
	got := m.PositionColumn(in, narrow)
	want := []int32{0, -1, 1, -1, 2, -1, -1, -1, -1, -1}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("narrow column %v, want %v", got, want)
		}
	}
}

// TestPositionColumnEmpty covers empty operands on either side.
func TestPositionColumnEmpty(t *testing.T) {
	sp := NewSpace("PCempty", 2)
	m := NewMap(sp, sp)
	s := SetOf(sp, NewVec(0, 0), NewVec(1, 1))
	if got := m.PositionColumn(s, s); len(got) != 2 || got[0] != -1 || got[1] != -1 {
		t.Fatalf("empty map column = %v", got)
	}
	m.Add(NewVec(0, 0), NewVec(1, 1))
	if got := m.PositionColumn(NewSet(sp), s); len(got) != 0 {
		t.Fatalf("empty in column = %v", got)
	}
	if got := m.PositionColumn(s, NewSet(sp)); got[0] != -1 || got[1] != -1 {
		t.Fatalf("empty out column = %v", got)
	}
}
