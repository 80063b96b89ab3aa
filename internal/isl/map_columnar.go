//go:build !islhashmap

package isl

import (
	"slices"
	"strconv"
)

// Map is a finite binary relation between an input tuple space and an
// output tuple space, the analogue of an ISL map restricted to bounded
// domains.
//
// Representation (the columnar backend): both tuples of every pair are
// canonicalized through the spaces' intern tables (see tableFor)
// and the relation is held CSR-style as three columns — the input ids
// (ins, sorted lexicographically), the start offset of each input's
// run (offs), and the concatenated output runs (outs, each run sorted
// lexicographically). The relation algebra (Compose, Union, ...) runs
// as merge scans over the columns, so a whole operation costs a
// handful of allocations; vectors materialize only at observation
// points (Lookup, Pairs, String) from cached arenas of canonical
// interned data.
//
// Builds that append pairs in lexicographic order — the dominant
// pattern — extend the columns directly. An out-of-order Add appends a
// fresh run and flips a dirty bit; the next observation re-sorts the
// runs, merges duplicate inputs, and deduplicates outputs in one
// normalization pass.
type Map struct {
	in, out Space
	ti, to  *internTable
	// ins[i] is the i-th input id; its outputs are
	// outs[offs[i]:offs[i+1]] (the last run ends at len(outs)).
	ins  []uint32
	offs []int32
	outs []uint32
	// inVecs/outVecs are canonical-vector arenas aligned with ins/outs;
	// nil when stale. Replaced, never edited in place.
	inVecs  []Vec
	outVecs []Vec
	// lastIn/lastOut track the canonical vectors of the newest run's
	// input and newest output when known, so in-order appends never
	// re-read the tables.
	lastIn, lastOut Vec
	// dirty marks columns whose runs are unsorted, duplicated, or hold
	// duplicate outputs.
	dirty bool
}

// NewMap returns an empty relation from space in to space out.
func NewMap(in, out Space) *Map {
	return &Map{in: in, out: out, ti: tableFor(in), to: tableFor(out)}
}

// InSpace returns the input (domain) tuple space.
func (m *Map) InSpace() Space { return m.in }

// OutSpace returns the output (range) tuple space.
func (m *Map) OutSpace() Space { return m.out }

// runStart returns the offset of run i in outs.
func (m *Map) runStart(i int) int { return int(m.offs[i]) }

// runEnd returns the end offset of run i in outs.
func (m *Map) runEnd(i int) int {
	if i+1 < len(m.offs) {
		return int(m.offs[i+1])
	}
	return len(m.outs)
}

// runOuts returns run i's output column.
func (m *Map) runOuts(i int) []uint32 { return m.outs[m.runStart(i):m.runEnd(i)] }

// appendRun appends a new run for input id with the given sorted
// output column.
func (m *Map) appendRun(id uint32, outs []uint32) {
	m.ins = append(m.ins, id)
	m.offs = append(m.offs, int32(len(m.outs)))
	m.outs = append(m.outs, outs...)
}

// addPairIDs inserts the pair (iid, oid) given ids already canonical
// in m's tables; iv and ov are their canonical vectors when the caller
// has them (nil means unknown).
func (m *Map) addPairIDs(iid uint32, iv Vec, oid uint32, ov Vec) {
	n := len(m.ins)
	if n == 0 {
		m.appendRun(iid, nil)
		m.outs = append(m.outs, oid)
		m.inVecs, m.outVecs = nil, nil
		m.lastIn, m.lastOut, m.dirty = iv, ov, false
		return
	}
	if m.ins[n-1] == iid {
		// Same run as the previous add.
		last := m.outs[len(m.outs)-1]
		if last == oid {
			return
		}
		m.inVecs, m.outVecs = nil, nil
		if !m.dirty {
			if ov == nil {
				ov = m.to.vec(oid)
			}
			if m.lastOut == nil {
				m.lastOut = m.to.vec(last)
			}
			if ov.Cmp(m.lastOut) > 0 {
				m.lastOut = ov
			} else {
				m.dirty, m.lastIn, m.lastOut = true, nil, nil
			}
		}
		m.outs = append(m.outs, oid)
		return
	}
	// New run.
	m.inVecs, m.outVecs = nil, nil
	if !m.dirty {
		if iv == nil {
			iv = m.ti.vec(iid)
		}
		if m.lastIn == nil {
			m.lastIn = m.ti.vec(m.ins[n-1])
		}
		if iv.Cmp(m.lastIn) > 0 {
			m.lastIn, m.lastOut = iv, ov
		} else {
			// Out of order, or a revisit of an earlier input (equal
			// vectors intern to equal ids, so a smaller vector can
			// still be a duplicate input). Normalization merges runs.
			m.dirty, m.lastIn, m.lastOut = true, nil, nil
		}
	}
	m.appendRun(iid, nil)
	m.outs = append(m.outs, oid)
}

// Add inserts the pair (in, out) into the relation. The vectors are
// copied (interned); the caller keeps ownership of its slices.
func (m *Map) Add(in, out Vec) {
	m.in.checkVec(in)
	m.out.checkVec(out)
	iid, iv := m.ti.intern(in)
	oid, ov := m.to.intern(out)
	m.addPairIDs(iid, iv, oid, ov)
}

// normalize establishes the CSR invariant: runs sorted by input
// vector, one run per input, outputs of each run strictly sorted.
func (m *Map) normalize() {
	if !m.dirty {
		return
	}
	m.inVecs, m.outVecs = nil, nil
	vi, vo := m.ti.snapshot(), m.to.snapshot()
	n := len(m.ins)
	// Sort each run's outputs in place (runs own disjoint regions).
	for i := 0; i < n; i++ {
		seg := m.outs[m.runStart(i):m.runEnd(i)]
		if !idsSortedByVec(seg, vo) {
			sortIDsByVec(seg, vo)
		}
	}
	// Order the runs by input vector.
	sc := getScratch()
	perm := sc.perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, uint32(i))
	}
	slices.SortFunc(perm, func(x, y uint32) int {
		return cmpIDs(vi, m.ins[x], m.ins[y])
	})
	// Rebuild, merging duplicate-input runs and deduplicating outputs.
	ins := make([]uint32, 0, n)
	offs := make([]int32, 0, n)
	outs := make([]uint32, 0, len(m.outs))
	for i := 0; i < n; {
		id := m.ins[perm[i]]
		j := i + 1
		for j < n && m.ins[perm[j]] == id {
			j++
		}
		ins = append(ins, id)
		offs = append(offs, int32(len(outs)))
		if j == i+1 {
			outs = appendDedup(outs, m.runOuts(int(perm[i])))
		} else {
			acc, tmp := sc.a[:0], sc.b[:0]
			acc = appendDedup(acc, m.runOuts(int(perm[i])))
			for k := i + 1; k < j; k++ {
				tmp = mergeUnionIDs(tmp[:0], acc, m.runOuts(int(perm[k])), vo)
				acc, tmp = tmp, acc
			}
			outs = append(outs, acc...)
			sc.a, sc.b = acc, tmp
		}
		i = j
	}
	sc.perm = perm
	sc.release()
	m.ins, m.offs, m.outs = ins, offs, outs
	m.dirty = false
	if len(ins) > 0 {
		m.lastIn = vi[ins[len(ins)-1]]
		m.lastOut = vo[outs[len(outs)-1]]
	} else {
		m.lastIn, m.lastOut = nil, nil
	}
}

// findRun returns the run index of iid, or -1. The map must be
// normalized; vi is the input table snapshot.
func (m *Map) findRun(iid uint32, vi []Vec) int {
	i := searchIDs(m.ins, 0, vi[iid], vi)
	if i < len(m.ins) && m.ins[i] == iid {
		return i
	}
	return -1
}

// Contains reports whether the pair (in, out) is in the relation.
func (m *Map) Contains(in, out Vec) bool {
	iid, ok := m.ti.lookup(in)
	if !ok {
		return false
	}
	oid, ok := m.to.lookup(out)
	if !ok {
		return false
	}
	m.normalize()
	i := m.findRun(iid, m.ti.snapshot())
	if i < 0 {
		return false
	}
	seg := m.runOuts(i)
	vo := m.to.snapshot()
	k := searchIDs(seg, 0, vo[oid], vo)
	return k < len(seg) && seg[k] == oid
}

// Card returns the number of pairs in the relation.
func (m *Map) Card() int {
	m.normalize()
	return len(m.outs)
}

// IsEmpty reports whether the relation has no pairs.
func (m *Map) IsEmpty() bool { return len(m.outs) == 0 }

// ensureVecs materializes the input and output vector arenas.
func (m *Map) ensureVecs() {
	m.normalize()
	if m.inVecs == nil && len(m.ins) > 0 {
		m.inVecs = m.ti.appendVecs(make([]Vec, 0, len(m.ins)), m.ins)
	}
	if m.outVecs == nil && len(m.outs) > 0 {
		m.outVecs = m.to.appendVecs(make([]Vec, 0, len(m.outs)), m.outs)
	}
}

// Lookup returns the outputs related to in, in lexicographic order.
//
// The returned slice and its vectors come straight from the interned
// store and are shared with every other relation of these spaces:
// they are strictly read-only, and modifying them corrupts the
// process-wide canonical tables. The first Lookup materializes the
// map's output arena; repeated lookups allocate nothing.
func (m *Map) Lookup(in Vec) []Vec {
	iid, ok := m.ti.lookup(in)
	if !ok {
		return nil
	}
	m.normalize()
	i := m.findRun(iid, m.ti.snapshot())
	if i < 0 {
		return nil
	}
	m.ensureVecs()
	return m.outVecs[m.runStart(i):m.runEnd(i)]
}

// Domain returns the set of input tuples that are related to at least
// one output tuple.
func (m *Map) Domain() *Set {
	m.normalize()
	s := NewSet(m.in)
	s.ids = slices.Clone(m.ins)
	s.last = m.lastIn
	return s
}

// Range returns the set of output tuples related to at least one input.
func (m *Map) Range() *Set {
	m.normalize()
	s := NewSet(m.out)
	if len(m.outs) == 0 {
		return s
	}
	ids := slices.Clone(m.outs)
	sortIDsByVec(ids, m.to.snapshot())
	s.ids = appendDedup(ids[:0], ids)
	return s
}

// Inverse returns the relation with all pairs reversed. The result is
// built as a direct CSR transpose: one pass ranks the distinct output
// ids through a dense id → rank table, a second scatters each pair under
// its output run, so the result is already normalized and the transpose
// itself costs O(pairs) once the outputs are sorted.
func (m *Map) Inverse() *Map {
	m.normalize()
	r := NewMap(m.out, m.in)
	if len(m.outs) == 0 {
		return r
	}
	vo := m.to.snapshot()
	// Rank the distinct output ids in vector order.
	ranked := slices.Clone(m.outs)
	sortIDsByVec(ranked, vo)
	ranked = appendDedup(ranked[:0], ranked)
	sc := getScratch()
	rank := sc.rankTable(len(vo)) // every id of m predates the snapshot
	for k, oid := range ranked {
		rank[oid] = int32(k)
	}
	// next[k] is where run k's next input goes: first the run lengths,
	// shifted one up, then their prefix sums.
	next := make([]int32, len(ranked)+1)
	for _, oid := range m.outs {
		next[rank[oid]+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	offs := slices.Clone(next[:len(ranked)])
	outs := make([]uint32, len(m.outs))
	for i, iid := range m.ins {
		for _, oid := range m.runOuts(i) {
			k := rank[oid]
			outs[next[k]] = iid
			next[k]++
		}
	}
	sc.release()
	r.ins, r.offs, r.outs = ranked, offs, outs
	return r
}

// PositionColumn returns one entry per element of in, in lexicographic
// order: the position in out of that element's lexicographically
// smallest image under m, or -1 when the element has no image or the
// image is not an element of out. It is a merge walk of m's input
// column against in's, with out's positions looked up through a dense
// id → position table from the scratch pool; no vector is hashed or
// compared unless the two input columns diverge.
func (m *Map) PositionColumn(in, out *Set) []int32 {
	m.in.checkSame(in.space, "Map.PositionColumn(in)")
	m.out.checkSame(out.space, "Map.PositionColumn(out)")
	m.normalize()
	in.normalize()
	out.normalize()
	vi := m.ti.snapshot()
	sc := getScratch()
	// Every id of m and out predates the snapshot. The table's other
	// entries are stale, so a hit counts only if out holds the id there.
	pos := sc.rankTable(len(m.to.snapshot()))
	for k, id := range out.ids {
		pos[id] = int32(k)
	}
	col := make([]int32, len(in.ids))
	r := 0
	for j, id := range in.ids {
		col[j] = -1
		for r < len(m.ins) && cmpIDs(vi, m.ins[r], id) < 0 {
			r++
		}
		if r == len(m.ins) || m.ins[r] != id {
			continue
		}
		oid := m.outs[m.runStart(r)]
		if k := pos[oid]; k >= 0 && int(k) < len(out.ids) && out.ids[k] == oid {
			col[j] = k
		}
	}
	sc.release()
	return col
}

// Clone returns an independent copy of m.
func (m *Map) Clone() *Map {
	return &Map{
		in: m.in, out: m.out, ti: m.ti, to: m.to,
		ins:     slices.Clone(m.ins),
		offs:    slices.Clone(m.offs),
		outs:    slices.Clone(m.outs),
		inVecs:  m.inVecs, // replaced, never edited in place
		outVecs: m.outVecs,
		lastIn:  m.lastIn,
		lastOut: m.lastOut,
		dirty:   m.dirty,
	}
}

// Union returns the relation holding every pair of m and n. Spaces must
// agree.
func (m *Map) Union(n *Map) *Map {
	m.in.checkSame(n.in, "Map.Union(in)")
	m.out.checkSame(n.out, "Map.Union(out)")
	m.normalize()
	n.normalize()
	vi, vo := m.ti.snapshot(), m.to.snapshot()
	r := NewMap(m.in, m.out)
	r.ins = make([]uint32, 0, len(m.ins)+len(n.ins))
	r.offs = make([]int32, 0, len(m.ins)+len(n.ins))
	r.outs = make([]uint32, 0, len(m.outs)+len(n.outs))
	i, j := 0, 0
	for i < len(m.ins) && j < len(n.ins) {
		switch c := cmpIDs(vi, m.ins[i], n.ins[j]); {
		case c < 0:
			r.appendRun(m.ins[i], m.runOuts(i))
			i++
		case c > 0:
			r.appendRun(n.ins[j], n.runOuts(j))
			j++
		default:
			r.ins = append(r.ins, m.ins[i])
			r.offs = append(r.offs, int32(len(r.outs)))
			r.outs = mergeUnionIDs(r.outs, m.runOuts(i), n.runOuts(j), vo)
			i++
			j++
		}
	}
	for ; i < len(m.ins); i++ {
		r.appendRun(m.ins[i], m.runOuts(i))
	}
	for ; j < len(n.ins); j++ {
		r.appendRun(n.ins[j], n.runOuts(j))
	}
	return r
}

// Intersect returns the relation holding the pairs present in both m
// and n.
func (m *Map) Intersect(n *Map) *Map {
	m.in.checkSame(n.in, "Map.Intersect(in)")
	m.out.checkSame(n.out, "Map.Intersect(out)")
	m.normalize()
	n.normalize()
	vi, vo := m.ti.snapshot(), m.to.snapshot()
	r := NewMap(m.in, m.out)
	i, j := 0, 0
	for i < len(m.ins) && j < len(n.ins) {
		switch c := cmpIDs(vi, m.ins[i], n.ins[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			mark := len(r.outs)
			r.outs = mergeIntersectIDs(r.outs, m.runOuts(i), n.runOuts(j), vo)
			if len(r.outs) > mark {
				r.ins = append(r.ins, m.ins[i])
				r.offs = append(r.offs, int32(mark))
			}
			i++
			j++
		}
	}
	return r
}

// Subtract returns the relation holding the pairs of m absent from n.
func (m *Map) Subtract(n *Map) *Map {
	m.in.checkSame(n.in, "Map.Subtract(in)")
	m.out.checkSame(n.out, "Map.Subtract(out)")
	m.normalize()
	n.normalize()
	vi, vo := m.ti.snapshot(), m.to.snapshot()
	r := NewMap(m.in, m.out)
	i, j := 0, 0
	for i < len(m.ins) {
		for j < len(n.ins) && cmpIDs(vi, n.ins[j], m.ins[i]) < 0 {
			j++
		}
		if j < len(n.ins) && n.ins[j] == m.ins[i] {
			mark := len(r.outs)
			r.outs = mergeSubtractIDs(r.outs, m.runOuts(i), n.runOuts(j), vo)
			if len(r.outs) > mark {
				r.ins = append(r.ins, m.ins[i])
				r.offs = append(r.offs, int32(mark))
			}
		} else {
			r.appendRun(m.ins[i], m.runOuts(i))
		}
		i++
	}
	return r
}

// Equal reports whether m and n hold exactly the same pairs in the same
// spaces. On normalized columns this is a flat column comparison.
func (m *Map) Equal(n *Map) bool {
	if m.in != n.in || m.out != n.out {
		return false
	}
	m.normalize()
	n.normalize()
	return slices.Equal(m.ins, n.ins) &&
		slices.Equal(m.offs, n.offs) &&
		slices.Equal(m.outs, n.outs)
}

// Compose returns outer ∘ inner: the relation of pairs (x, z) such that
// some y satisfies (x, y) ∈ inner and (y, z) ∈ outer. This matches the
// paper's notation M1(M2) with M1 = outer and M2 = inner. Because both
// relations canonicalize the shared middle space through one intern
// table, composition is a merge over id columns — no vector is hashed
// or materialized.
func Compose(outer, inner *Map) *Map {
	inner.out.checkSame(outer.in, "Compose")
	inner.normalize()
	outer.normalize()
	vm, vo := outer.ti.snapshot(), outer.to.snapshot()
	r := NewMap(inner.in, outer.out)
	sc := getScratch()
	acc, tmp := sc.a[:0], sc.b[:0]
	for i := range inner.ins {
		acc = acc[:0]
		// The run's outputs and outer's inputs are both sorted over the
		// shared middle space: advance a single cursor.
		oi := 0
		for _, y := range inner.runOuts(i) {
			k := searchIDs(outer.ins, oi, vm[y], vm)
			if k < len(outer.ins) && outer.ins[k] == y {
				zs := outer.runOuts(k)
				if len(acc) == 0 {
					acc = append(acc, zs...)
				} else {
					tmp = mergeUnionIDs(tmp[:0], acc, zs, vo)
					acc, tmp = tmp, acc
				}
				oi = k + 1
			} else {
				oi = k
			}
		}
		if len(acc) > 0 {
			r.appendRun(inner.ins[i], acc)
		}
	}
	sc.a, sc.b = acc, tmp
	sc.release()
	return r
}

// ApplySet returns the image of s under m: { y : ∃x ∈ s, (x, y) ∈ m }.
func (m *Map) ApplySet(s *Set) *Set {
	m.in.checkSame(s.space, "Map.ApplySet")
	m.normalize()
	s.normalize()
	vi := m.ti.snapshot()
	r := NewSet(m.out)
	sc := getScratch()
	gather := sc.a[:0]
	i, j := 0, 0
	for i < len(m.ins) && j < len(s.ids) {
		switch c := cmpIDs(vi, m.ins[i], s.ids[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			gather = append(gather, m.runOuts(i)...)
			i++
			j++
		}
	}
	if len(gather) > 0 {
		sortIDsByVec(gather, m.to.snapshot())
		r.ids = appendDedup(make([]uint32, 0, len(gather)), gather)
	}
	sc.a = gather
	sc.release()
	return r
}

// IntersectDomain returns the pairs of m whose input lies in s.
func (m *Map) IntersectDomain(s *Set) *Map {
	m.in.checkSame(s.space, "Map.IntersectDomain")
	m.normalize()
	s.normalize()
	vi := m.ti.snapshot()
	r := NewMap(m.in, m.out)
	i, j := 0, 0
	for i < len(m.ins) && j < len(s.ids) {
		switch c := cmpIDs(vi, m.ins[i], s.ids[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			r.appendRun(m.ins[i], m.runOuts(i))
			i++
			j++
		}
	}
	return r
}

// IntersectRange returns the pairs of m whose output lies in s.
func (m *Map) IntersectRange(s *Set) *Map {
	m.out.checkSame(s.space, "Map.IntersectRange")
	m.normalize()
	s.normalize()
	vo := m.to.snapshot()
	r := NewMap(m.in, m.out)
	for i := range m.ins {
		mark := len(r.outs)
		r.outs = mergeIntersectIDs(r.outs, m.runOuts(i), s.ids, vo)
		if len(r.outs) > mark {
			r.ins = append(r.ins, m.ins[i])
			r.offs = append(r.offs, int32(mark))
		}
	}
	return r
}

// extremeOutID returns the id and canonical vector of iid's
// lexicographic maximum (sign > 0) or minimum (sign < 0) output, or
// false when iid has no outputs. On a normalized column this is an
// O(log) run lookup plus an O(1) endpoint read.
func (m *Map) extremeOutID(iid uint32, sign int) (uint32, Vec, bool) {
	m.normalize()
	i := m.findRun(iid, m.ti.snapshot())
	if i < 0 {
		return 0, nil, false
	}
	var oid uint32
	if sign > 0 {
		oid = m.outs[m.runEnd(i)-1]
	} else {
		oid = m.outs[m.runStart(i)]
	}
	return oid, m.to.vec(oid), true
}

// LexmaxPerIn returns the single-valued map relating each input of m to
// the lexicographically largest of its outputs. This is the paper's
// lexmax(M) operation; on normalized columns it is one endpoint read
// per run.
func (m *Map) LexmaxPerIn() *Map { return m.extremePerIn(1) }

// LexminPerIn returns the single-valued map relating each input of m to
// the lexicographically smallest of its outputs. This is the paper's
// lexmin(M) operation; on normalized columns it is one endpoint read
// per run.
func (m *Map) LexminPerIn() *Map { return m.extremePerIn(-1) }

func (m *Map) extremePerIn(sign int) *Map {
	m.normalize()
	r := NewMap(m.in, m.out)
	n := len(m.ins)
	if n == 0 {
		return r
	}
	r.ins = slices.Clone(m.ins)
	r.offs = make([]int32, n)
	r.outs = make([]uint32, n)
	for i := 0; i < n; i++ {
		r.offs[i] = int32(i)
		if sign > 0 {
			r.outs[i] = m.outs[m.runEnd(i)-1]
		} else {
			r.outs[i] = m.outs[m.runStart(i)]
		}
	}
	r.lastIn = m.lastIn
	return r
}

// IsSingleValued reports whether every input relates to at most one
// output.
func (m *Map) IsSingleValued() bool {
	m.normalize()
	return len(m.outs) == len(m.ins)
}

// IsInjective reports whether no two inputs relate to the same output.
func (m *Map) IsInjective() bool {
	m.normalize()
	if len(m.outs) < 2 {
		return true
	}
	sc := getScratch()
	ids := append(sc.a[:0], m.outs...)
	slices.Sort(ids) // numeric order suffices: only equality matters
	injective := true
	for k := 1; k < len(ids); k++ {
		if ids[k] == ids[k-1] {
			injective = false
			break
		}
	}
	sc.a = ids
	sc.release()
	return injective
}

// Freeze sorts every run, materializes all lazily computed caches, and
// returns m. A frozen map serves Lookup, Image, Pairs, Foreach, and
// ForeachEntry without further internal mutation, so it may be shared
// by concurrent readers; Add after Freeze is allowed but re-dirties
// the affected caches. Detection freezes the structures it shares
// across its worker pool (see docs/PERFORMANCE.md).
func (m *Map) Freeze() *Map {
	m.ensureVecs()
	return m
}

// ForeachEntry calls fn once per input in lexicographic order with the
// input's full output slice (lexicographically sorted). It is the
// allocation-free iteration primitive: both arguments are shared
// canonical data and must not be modified or retained past the call.
// On a frozen map it performs no internal mutation.
func (m *Map) ForeachEntry(fn func(in Vec, outs []Vec) bool) {
	m.ensureVecs()
	for i := range m.ins {
		if !fn(m.inVecs[i], m.outVecs[m.runStart(i):m.runEnd(i)]) {
			return
		}
	}
}

// Image returns the single output related to in. It panics unless
// exactly one output exists; use Lookup for the general case. On
// normalized single-valued maps Image performs no internal mutation,
// so it is safe for concurrent readers even without Freeze.
func (m *Map) Image(in Vec) Vec {
	iid, ok := m.ti.lookup(in)
	if ok {
		m.normalize()
		if i := m.findRun(iid, m.ti.snapshot()); i >= 0 {
			if start, end := m.runStart(i), m.runEnd(i); end-start == 1 {
				return m.to.vec(m.outs[start])
			} else {
				panic("isl: Map.Image: input " + in.String() + " has " +
					strconv.Itoa(end-start) + " outputs, want exactly 1")
			}
		}
	}
	panic("isl: Map.Image: input " + in.String() + " has 0 outputs, want exactly 1")
}
