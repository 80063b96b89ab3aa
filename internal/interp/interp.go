// Package interp executes analysis-only SCoPs (for example, programs
// parsed from the DSL, which carry no statement bodies): it allocates
// one float64 array per SCoP array — sized to cover every declared
// access — and attaches a deterministic synthetic body to every
// statement that folds the statement's reads (in declaration order)
// into the written cell.
//
// Because the synthetic bodies read and write exactly the cells the
// access relations declare, interpretation is a faithful executable
// twin of the polyhedral description, which makes it the workhorse of
// the differential tests: any scheduling error in the pipeline
// transformation changes the bits of the result.
package interp

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// Array is a dense float64 array with per-dimension offsets, so
// accesses with negative or shifted indices stay in bounds.
type Array struct {
	name   string
	offset []int // minimum accessed index per dimension
	extent []int // number of cells per dimension
	data   []float64
}

// index maps an access index vector to the flat position.
func (a *Array) index(idx isl.Vec) int {
	pos := 0
	for d, x := range idx {
		rel := x - a.offset[d]
		if uint(rel) >= uint(a.extent[d]) {
			a.outOfBox(idx, d, x)
		}
		pos = pos*a.extent[d] + rel
	}
	return pos
}

// outOfBox panics for an access whose subscript d, x, falls outside
// the allocation. It formats a copy of idx, so the caller's index
// vector does not escape to the heap on the in-bounds path.
//
//go:noinline
func (a *Array) outOfBox(idx []int, d, x int) {
	at := append([]int(nil), idx...)
	panic(fmt.Sprintf("interp: access %s%v outside allocated [%v, %v+%v): subscript %d is %d",
		a.name, at, a.offset, a.offset, a.extent, d, x))
}

// At returns the value at idx.
func (a *Array) At(idx isl.Vec) float64 { return a.data[a.index(idx)] }

// Set stores v at idx.
func (a *Array) Set(idx isl.Vec, v float64) { a.data[a.index(idx)] = v }

// State holds the arrays of one SCoP plus per-statement sink
// accumulators: statements without a write access fold an
// order-insensitive integer digest of their computed values into their
// accumulator, so scheduling errors around pure readers still change
// the state hash. Accumulation is atomic because the Polly-baseline
// executor may run a conflict-free sink statement's iterations in
// parallel.
type State struct {
	arrays    map[string]*Array
	order     []string
	sinks     map[string]*atomic.Int64
	sinkNames []string
}

// NewState allocates arrays covering every access of sc.
func NewState(sc *scop.SCoP) *State {
	st := &State{arrays: make(map[string]*Array), sinks: make(map[string]*atomic.Int64)}
	for _, s := range sc.Stmts {
		if s.Write == nil {
			st.sinks[s.Name] = new(atomic.Int64)
			st.sinkNames = append(st.sinkNames, s.Name)
		}
	}
	sortStrings(st.sinkNames)
	type bounds struct{ lo, hi []int }
	bs := map[string]*bounds{}
	consider := func(rel *isl.Map) {
		name := rel.OutSpace().Name
		b := bs[name]
		rel.Range().Foreach(func(idx isl.Vec) bool {
			if b == nil {
				b = &bounds{lo: idx.Clone(), hi: idx.Clone()}
				bs[name] = b
			}
			for d, x := range idx {
				if x < b.lo[d] {
					b.lo[d] = x
				}
				if x > b.hi[d] {
					b.hi[d] = x
				}
			}
			return true
		})
	}
	for _, s := range sc.Stmts {
		if s.Write != nil {
			consider(s.Write.Rel)
		}
		for i := range s.Reads {
			consider(s.Reads[i].Rel)
		}
	}
	for name, arr := range sc.Arrays {
		b := bs[name]
		if b == nil {
			// Declared but never accessed: single cell.
			b = &bounds{lo: make([]int, arr.Dim), hi: make([]int, arr.Dim)}
		}
		extent := make([]int, len(b.lo))
		size := 1
		for d := range extent {
			extent[d] = b.hi[d] - b.lo[d] + 1
			size *= extent[d]
		}
		st.arrays[name] = &Array{
			name:   name,
			offset: b.lo,
			extent: extent,
			data:   make([]float64, size),
		}
		st.order = append(st.order, name)
	}
	sortStrings(st.order)
	return st
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Array returns the named array.
func (st *State) Array(name string) *Array { return st.arrays[name] }

// Reset seeds every array deterministically and clears the sink
// accumulators.
func (st *State) Reset() {
	for _, a := range st.sinks {
		a.Store(0)
	}
	for _, name := range st.order {
		a := st.arrays[name]
		seed := SeedBase(name)
		for i := range a.data {
			a.data[i] = SeedValue(seed, i)
		}
	}
}

// Hash digests all arrays (order-sensitively) and the sink
// accumulators.
func (st *State) Hash() uint64 {
	h := uint64(14695981039346656037)
	for _, name := range st.order {
		for _, v := range st.arrays[name].data {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	for _, name := range st.sinkNames {
		h ^= uint64(st.sinks[name].Load())
		h *= 1099511628211
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Attach installs a synthetic body on every statement of sc, bound to
// this state. Bodies are deterministic and order-sensitive in the
// declared reads:
//
//	acc = 1
//	for each read r (in declaration order): acc = acc/2 + value(r)
//	write cell = acc*0.3 + 0.01*Σ(iteration coords)
//
// A final squash keeps magnitudes bounded across long chains.
func (st *State) Attach(sc *scop.SCoP) {
	for _, s := range sc.Stmts {
		s.Body = st.bodyFor(s)
	}
}

// row is one subscript of a compiled access as an integer row over
// the iteration vector iv: the cell's coordinate relative to the
// array's allocation is c + Σ coef[k]·iv[k], and it must lie in
// [0, ext). A quasi-affine subscript (one with floor divisions) keeps
// its expression and is evaluated per point; c is then -offset.
type row struct {
	c     int
	coef  []int // len == statement depth
	ext   int
	quasi *aff.Expr
}

// access is one read or write of a statement compiled against its
// array: rows folded row-major give a flat position in data.
type access struct {
	arr  *Array
	data []float64 // arr.data; Reset refills it in place
	rows []row
}

// compile lowers access a of statement s to integer rows. It rejects
// a subscript whose arity differs from the statement's depth, which
// Expr.Eval would otherwise only catch at the first point (and the
// unrolled rows not at all).
func (st *State) compile(s *scop.Statement, a *scop.AccessRef) access {
	arr := st.arrays[a.Array()]
	depth := s.Depth()
	rows := make([]row, len(a.Access.Exprs))
	for d, e := range a.Access.Exprs {
		if !overDepth(e, depth) {
			panic(fmt.Sprintf("interp: statement %s: subscript %d of its access to %s is over %d variables, not the domain's %d",
				s.Name, d, arr.name, e.NVars, depth))
		}
		r := row{c: -arr.offset[d], ext: arr.extent[d]}
		if len(e.Divs) > 0 {
			r.quasi = &e
		} else {
			r.c += e.Const
			r.coef = make([]int, depth)
			copy(r.coef, e.Coeffs)
		}
		rows[d] = r
	}
	return access{arr: arr, data: arr.data, rows: rows}
}

// overDepth reports whether e and every floor-division term inside it
// range over exactly depth variables.
func overDepth(e aff.Expr, depth int) bool {
	if e.NVars != depth || (e.Coeffs != nil && len(e.Coeffs) != depth) {
		return false
	}
	for _, t := range e.Divs {
		if !overDepth(t.Inner, depth) {
			return false
		}
	}
	return true
}

// index returns the flat position of the access at iv. The dot
// product is unrolled for depths 1–3; every subscript keeps its
// bounds check.
func (ac *access) index(iv isl.Vec) int {
	pos := 0
	for d := range ac.rows {
		r := &ac.rows[d]
		rel := r.c
		switch len(r.coef) {
		case 0:
			if r.quasi != nil {
				rel += r.quasi.Eval(iv)
			}
		case 1:
			rel += r.coef[0] * iv[0]
		case 2:
			rel += r.coef[0]*iv[0] + r.coef[1]*iv[1]
		case 3:
			rel += r.coef[0]*iv[0] + r.coef[1]*iv[1] + r.coef[2]*iv[2]
		default:
			for k, a := range r.coef {
				rel += a * iv[k]
			}
		}
		if uint(rel) >= uint(r.ext) {
			ac.outOfBox(iv, d, rel)
		}
		pos = pos*r.ext + rel
	}
	return pos
}

// outOfBox panics for a point whose subscript d lies rel cells past
// the start of the allocation, outside it.
//
//go:noinline
func (ac *access) outOfBox(iv []int, d, rel int) {
	at := append([]int(nil), iv...)
	a := ac.arr
	panic(fmt.Sprintf("interp: access to %s at point %v: subscript %d is %d, outside allocated [%d, %d)",
		a.name, at, d, rel+a.offset[d], a.offset[d], a.offset[d]+a.extent[d]))
}

// bodyFor compiles the synthetic body of s: every access becomes
// integer rows once, so a point costs a few multiply-adds per
// subscript and allocates nothing. The values come from FoldRead,
// Finish and SinkFold, the shared semantics.
func (st *State) bodyFor(s *scop.Statement) scop.Body {
	reads := make([]access, len(s.Reads))
	for i := range s.Reads {
		reads[i] = st.compile(s, &s.Reads[i])
	}
	var write *access
	if s.Write != nil {
		w := st.compile(s, s.Write)
		write = &w
	}
	sink := st.sinks[s.Name]
	return func(iv isl.Vec) {
		acc := float64(AccInit)
		for i := range reads {
			r := &reads[i]
			acc = FoldRead(acc, r.data[r.index(iv)])
		}
		lin := 0
		for _, x := range iv {
			lin += x
		}
		v := Finish(acc, lin)
		if write != nil {
			write.data[write.index(iv)] = v
		} else if sink != nil {
			// Order-insensitive integer fold: safe under any legal
			// schedule, including parallel sink iterations, yet
			// sensitive to the values read.
			sink.Add(SinkFold(v))
		}
	}
}

// Programify wraps an analysis-only SCoP into a runnable Program with
// synthetic bodies, ready for the executors.
func Programify(sc *scop.SCoP) *kernels.Program {
	st := NewState(sc)
	st.Attach(sc)
	st.Reset()
	return &kernels.Program{
		Name:  sc.Name,
		SCoP:  sc,
		Reset: st.Reset,
		Hash:  st.Hash,
	}
}
