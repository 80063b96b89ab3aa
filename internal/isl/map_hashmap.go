//go:build islhashmap

package isl

import (
	"sort"
	"strconv"
)

// Map is a finite binary relation between an input tuple space and an
// output tuple space, the analogue of an ISL map restricted to bounded
// domains.
//
// Representation: both tuples of every pair are canonicalized through
// the spaces' intern tables (see tableFor), and the relation itself
// is a map from input id to a deduplicated slice of output ids. All of
// the relation algebra (Compose, Union, Inverse, ...) therefore runs
// on dense integer ids; vectors are materialized only at observation
// points (Lookup, Pairs, String), and those return canonical vectors
// straight from the interned store.
type Map struct {
	in, out Space
	ti, to  *internTable
	// rel maps an input id to its entry.
	rel map[uint32]*mapEntry
	// inOrder caches the input ids in lexicographic vector order; nil
	// when stale. Freeze populates it.
	inOrder []uint32
}

// mapEntry holds the outputs of one input id.
type mapEntry struct {
	// outs holds the deduplicated output ids. The sorted flag is the
	// entry's ordering invariant: when true, outs is ascending in the
	// lexicographic order of the underlying vectors; when false the
	// slice is in insertion order and is re-sorted lazily at the next
	// ordered observation.
	outs   []uint32
	sorted bool
	// last is the canonical vector of outs[len(outs)-1] when known;
	// it keeps in-lex-order appends (the common build pattern) from
	// ever invalidating the sorted flag. nil means unknown.
	last Vec
	// vecs caches the canonical output vectors in lexicographic order;
	// nil when stale. This is what Lookup returns.
	vecs []Vec
	// seen indexes membership once the entry grows past seenThreshold;
	// nil for small entries, which use a linear id scan.
	seen map[uint32]struct{}
}

// seenThreshold is the entry size beyond which membership switches
// from a linear uint32 scan to a hash set.
const seenThreshold = 32

func (e *mapEntry) has(id uint32) bool {
	if e.seen != nil {
		_, ok := e.seen[id]
		return ok
	}
	for _, o := range e.outs {
		if o == id {
			return true
		}
	}
	return false
}

// addID appends id to the entry if absent. ov, when non-nil, is the
// canonical vector of id and keeps the sorted invariant alive for
// in-order appends; with ov == nil a multi-element entry is marked
// unsorted and re-sorted lazily.
func (e *mapEntry) addID(id uint32, ov Vec) bool {
	if e.has(id) {
		return false
	}
	if len(e.outs) == 0 {
		e.sorted = true
	} else if e.sorted && ov != nil && e.last != nil && e.last.Cmp(ov) < 0 {
		// stays sorted
	} else {
		e.sorted = false
	}
	e.outs = append(e.outs, id)
	e.last = ov
	e.vecs = nil
	if e.seen != nil {
		e.seen[id] = struct{}{}
	} else if len(e.outs) > seenThreshold {
		e.seen = make(map[uint32]struct{}, 2*len(e.outs))
		for _, o := range e.outs {
			e.seen[o] = struct{}{}
		}
	}
	return true
}

// NewMap returns an empty relation from space in to space out.
func NewMap(in, out Space) *Map {
	return &Map{
		in: in, out: out,
		ti: tableFor(in), to: tableFor(out),
		rel: make(map[uint32]*mapEntry),
	}
}

// InSpace returns the input (domain) tuple space.
func (m *Map) InSpace() Space { return m.in }

// OutSpace returns the output (range) tuple space.
func (m *Map) OutSpace() Space { return m.out }

// entry returns the entry of iid, creating it if needed.
func (m *Map) entry(iid uint32) *mapEntry {
	e, ok := m.rel[iid]
	if !ok {
		e = &mapEntry{}
		m.rel[iid] = e
		m.inOrder = nil
	}
	return e
}

// addIDs inserts the pair (iid, oid) given ids already canonical in
// m's tables; ov is oid's canonical vector when the caller has it.
func (m *Map) addIDs(iid, oid uint32, ov Vec) {
	if m.entry(iid).addID(oid, ov) {
		m.inOrder = nil
	}
}

// addPairIDs inserts the pair (iid, oid) given ids already canonical
// in m's tables; the input-vector hint iv is unused by this backend.
func (m *Map) addPairIDs(iid uint32, iv Vec, oid uint32, ov Vec) {
	m.addIDs(iid, oid, ov)
}

// Add inserts the pair (in, out) into the relation. The vectors are
// copied (interned); the caller keeps ownership of its slices.
func (m *Map) Add(in, out Vec) {
	m.in.checkVec(in)
	m.out.checkVec(out)
	iid, _ := m.ti.intern(in)
	oid, ov := m.to.intern(out)
	m.addIDs(iid, oid, ov)
}

// Contains reports whether the pair (in, out) is in the relation.
func (m *Map) Contains(in, out Vec) bool {
	iid, ok := m.ti.lookup(in)
	if !ok {
		return false
	}
	e, ok := m.rel[iid]
	if !ok {
		return false
	}
	oid, ok := m.to.lookup(out)
	return ok && e.has(oid)
}

// Card returns the number of pairs in the relation.
func (m *Map) Card() int {
	n := 0
	for _, e := range m.rel {
		n += len(e.outs)
	}
	return n
}

// IsEmpty reports whether the relation has no pairs.
func (m *Map) IsEmpty() bool { return len(m.rel) == 0 }

// sortEntry establishes the entry's sorted invariant and output-vector
// cache.
func (m *Map) sortEntry(e *mapEntry) {
	if e.vecs == nil {
		e.vecs = m.to.appendVecs(make([]Vec, 0, len(e.outs)), e.outs)
	}
	if !e.sorted {
		idx := make([]int, len(e.outs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return e.vecs[idx[a]].Cmp(e.vecs[idx[b]]) < 0 })
		outs := make([]uint32, len(e.outs))
		vecs := make([]Vec, len(e.outs))
		for i, j := range idx {
			outs[i] = e.outs[j]
			vecs[i] = e.vecs[j]
		}
		e.outs, e.vecs = outs, vecs
		e.sorted = true
	}
	if n := len(e.vecs); n > 0 {
		e.last = e.vecs[n-1]
	}
}

// Lookup returns the outputs related to in, in lexicographic order.
//
// The returned slice and its vectors come straight from the interned
// store and are shared with every other relation of these spaces:
// they are strictly read-only, and modifying them corrupts the
// process-wide canonical tables. The first Lookup of an input sorts
// and caches the slice; repeated lookups allocate nothing.
func (m *Map) Lookup(in Vec) []Vec {
	iid, ok := m.ti.lookup(in)
	if !ok {
		return nil
	}
	e, ok := m.rel[iid]
	if !ok {
		return nil
	}
	if e.vecs == nil || !e.sorted {
		m.sortEntry(e)
	}
	return e.vecs
}

// Domain returns the set of input tuples that are related to at least
// one output tuple.
func (m *Map) Domain() *Set {
	s := NewSet(m.in)
	for iid := range m.rel {
		s.elems[iid] = struct{}{}
	}
	return s
}

// Range returns the set of output tuples related to at least one input.
func (m *Map) Range() *Set {
	s := NewSet(m.out)
	for _, e := range m.rel {
		for _, oid := range e.outs {
			s.elems[oid] = struct{}{}
		}
	}
	return s
}

// Inverse returns the relation with all pairs reversed.
func (m *Map) Inverse() *Map {
	r := NewMap(m.out, m.in)
	for iid, e := range m.rel {
		for _, oid := range e.outs {
			r.addIDs(oid, iid, nil)
		}
	}
	return r
}

// PositionColumn returns one entry per element of in, in lexicographic
// order: the position in out of that element's lexicographically
// smallest image under m, or -1 when the element has no image or the
// image is not an element of out.
func (m *Map) PositionColumn(in, out *Set) []int32 {
	m.in.checkSame(in.space, "Map.PositionColumn(in)")
	m.out.checkSame(out.space, "Map.PositionColumn(out)")
	oids := out.elementIDs()
	pos := make(map[uint32]int32, len(oids))
	for k, id := range oids {
		pos[id] = int32(k)
	}
	ids := in.elementIDs()
	col := make([]int32, len(ids))
	for j, id := range ids {
		col[j] = -1
		if e, ok := m.rel[id]; ok && len(e.outs) > 0 {
			oid, _ := m.extremeOut(e, -1)
			if k, ok := pos[oid]; ok {
				col[j] = k
			}
		}
	}
	return col
}

// Clone returns an independent copy of m.
func (m *Map) Clone() *Map {
	r := NewMap(m.in, m.out)
	for iid, e := range m.rel {
		c := &mapEntry{
			outs:   append([]uint32(nil), e.outs...),
			sorted: e.sorted,
			last:   e.last,
			vecs:   e.vecs, // immutable once built; replaced, never edited
		}
		if e.seen != nil {
			c.seen = make(map[uint32]struct{}, len(e.seen))
			for o := range e.seen {
				c.seen[o] = struct{}{}
			}
		}
		r.rel[iid] = c
	}
	return r
}

// Union returns the relation holding every pair of m and n. Spaces must
// agree.
func (m *Map) Union(n *Map) *Map {
	m.in.checkSame(n.in, "Map.Union(in)")
	m.out.checkSame(n.out, "Map.Union(out)")
	r := m.Clone()
	for iid, e := range n.rel {
		for _, oid := range e.outs {
			r.addIDs(iid, oid, nil)
		}
	}
	return r
}

// Intersect returns the relation holding the pairs present in both m
// and n.
func (m *Map) Intersect(n *Map) *Map {
	m.in.checkSame(n.in, "Map.Intersect(in)")
	m.out.checkSame(n.out, "Map.Intersect(out)")
	r := NewMap(m.in, m.out)
	for iid, e := range m.rel {
		ne, ok := n.rel[iid]
		if !ok {
			continue
		}
		for _, oid := range e.outs {
			if ne.has(oid) {
				r.addIDs(iid, oid, nil)
			}
		}
	}
	return r
}

// Subtract returns the relation holding the pairs of m absent from n.
func (m *Map) Subtract(n *Map) *Map {
	m.in.checkSame(n.in, "Map.Subtract(in)")
	m.out.checkSame(n.out, "Map.Subtract(out)")
	r := NewMap(m.in, m.out)
	for iid, e := range m.rel {
		ne := n.rel[iid]
		for _, oid := range e.outs {
			if ne != nil && ne.has(oid) {
				continue
			}
			r.addIDs(iid, oid, nil)
		}
	}
	return r
}

// Equal reports whether m and n hold exactly the same pairs in the same
// spaces.
func (m *Map) Equal(n *Map) bool {
	if m.in != n.in || m.out != n.out || len(m.rel) != len(n.rel) {
		return false
	}
	for iid, e := range m.rel {
		ne, ok := n.rel[iid]
		if !ok || len(e.outs) != len(ne.outs) {
			return false
		}
		for _, oid := range e.outs {
			if !ne.has(oid) {
				return false
			}
		}
	}
	return true
}

// Compose returns outer ∘ inner: the relation of pairs (x, z) such that
// some y satisfies (x, y) ∈ inner and (y, z) ∈ outer. This matches the
// paper's notation M1(M2) with M1 = outer and M2 = inner. Because both
// relations canonicalize the shared middle space through one intern
// table, composition is pure id plumbing — no vector is hashed or
// materialized.
func Compose(outer, inner *Map) *Map {
	inner.out.checkSame(outer.in, "Compose")
	r := NewMap(inner.in, outer.out)
	for iid, e := range inner.rel {
		for _, yid := range e.outs {
			oe, ok := outer.rel[yid]
			if !ok {
				continue
			}
			for _, zid := range oe.outs {
				r.addIDs(iid, zid, nil)
			}
		}
	}
	return r
}

// ApplySet returns the image of s under m: { y : ∃x ∈ s, (x, y) ∈ m }.
func (m *Map) ApplySet(s *Set) *Set {
	m.in.checkSame(s.space, "Map.ApplySet")
	r := NewSet(m.out)
	for iid := range s.elems {
		e, ok := m.rel[iid]
		if !ok {
			continue
		}
		for _, oid := range e.outs {
			r.elems[oid] = struct{}{}
		}
	}
	return r
}

// IntersectDomain returns the pairs of m whose input lies in s.
func (m *Map) IntersectDomain(s *Set) *Map {
	m.in.checkSame(s.space, "Map.IntersectDomain")
	r := NewMap(m.in, m.out)
	for iid, e := range m.rel {
		if _, ok := s.elems[iid]; !ok {
			continue
		}
		for _, oid := range e.outs {
			r.addIDs(iid, oid, nil)
		}
	}
	return r
}

// IntersectRange returns the pairs of m whose output lies in s.
func (m *Map) IntersectRange(s *Set) *Map {
	m.out.checkSame(s.space, "Map.IntersectRange")
	r := NewMap(m.in, m.out)
	for iid, e := range m.rel {
		for _, oid := range e.outs {
			if _, ok := s.elems[oid]; ok {
				r.addIDs(iid, oid, nil)
			}
		}
	}
	return r
}

// extremeOut returns the id and canonical vector of the entry's
// lexicographic maximum (sign > 0) or minimum (sign < 0) output.
func (m *Map) extremeOut(e *mapEntry, sign int) (uint32, Vec) {
	if e.sorted && e.vecs != nil {
		if sign > 0 {
			return e.outs[len(e.outs)-1], e.vecs[len(e.vecs)-1]
		}
		return e.outs[0], e.vecs[0]
	}
	m.to.mu.RLock()
	best := e.outs[0]
	bv := m.to.vecs[best]
	for _, oid := range e.outs[1:] {
		if v := m.to.vecs[oid]; sign*v.Cmp(bv) > 0 {
			best, bv = oid, v
		}
	}
	m.to.mu.RUnlock()
	return best, bv
}

// extremeOutID returns the id and canonical vector of iid's
// lexicographic maximum (sign > 0) or minimum (sign < 0) output, or
// false when iid has no outputs.
func (m *Map) extremeOutID(iid uint32, sign int) (uint32, Vec, bool) {
	e, ok := m.rel[iid]
	if !ok || len(e.outs) == 0 {
		return 0, nil, false
	}
	oid, ov := m.extremeOut(e, sign)
	return oid, ov, true
}

// LexmaxPerIn returns the single-valued map relating each input of m to
// the lexicographically largest of its outputs. This is the paper's
// lexmax(M) operation.
func (m *Map) LexmaxPerIn() *Map {
	r := NewMap(m.in, m.out)
	for iid, e := range m.rel {
		oid, ov := m.extremeOut(e, 1)
		r.addIDs(iid, oid, ov)
	}
	return r
}

// LexminPerIn returns the single-valued map relating each input of m to
// the lexicographically smallest of its outputs. This is the paper's
// lexmin(M) operation.
func (m *Map) LexminPerIn() *Map {
	r := NewMap(m.in, m.out)
	for iid, e := range m.rel {
		oid, ov := m.extremeOut(e, -1)
		r.addIDs(iid, oid, ov)
	}
	return r
}

// IsSingleValued reports whether every input relates to at most one
// output.
func (m *Map) IsSingleValued() bool {
	for _, e := range m.rel {
		if len(e.outs) > 1 {
			return false
		}
	}
	return true
}

// IsInjective reports whether no two inputs relate to the same output.
func (m *Map) IsInjective() bool {
	seen := make(map[uint32]uint32, len(m.rel))
	for iid, e := range m.rel {
		for _, oid := range e.outs {
			if prev, ok := seen[oid]; ok && prev != iid {
				return false
			}
			seen[oid] = iid
		}
	}
	return true
}

// sortedIns returns the input ids in lexicographic vector order,
// caching the result until the next Add.
func (m *Map) sortedIns() []uint32 {
	if m.inOrder != nil {
		return m.inOrder
	}
	ids := make([]uint32, 0, len(m.rel))
	for iid := range m.rel {
		ids = append(ids, iid)
	}
	vecs := m.ti.appendVecs(make([]Vec, 0, len(ids)), ids)
	sort.Sort(&idVecSort{ids: ids, vecs: vecs})
	m.inOrder = ids
	return ids
}

// idVecSort sorts an id slice and its aligned vector slice by the
// vectors' lexicographic order.
type idVecSort struct {
	ids  []uint32
	vecs []Vec
}

func (s *idVecSort) Len() int           { return len(s.ids) }
func (s *idVecSort) Less(i, j int) bool { return s.vecs[i].Cmp(s.vecs[j]) < 0 }
func (s *idVecSort) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.vecs[i], s.vecs[j] = s.vecs[j], s.vecs[i]
}

// Freeze sorts every entry, materializes all lazily computed caches,
// and returns m. A frozen map serves Lookup, Image, Pairs, Foreach,
// and ForeachEntry without further internal mutation, so it may be
// shared by concurrent readers; Add after Freeze is allowed but
// re-dirties the affected caches. Detection freezes the structures it
// shares across its worker pool (see docs/PERFORMANCE.md).
func (m *Map) Freeze() *Map {
	for _, e := range m.rel {
		if e.vecs == nil || !e.sorted {
			m.sortEntry(e)
		}
	}
	m.sortedIns()
	return m
}

// ForeachEntry calls fn once per input in lexicographic order with the
// input's full output slice (lexicographically sorted). It is the
// allocation-free iteration primitive: both arguments are shared
// canonical data and must not be modified or retained past the call.
// On a frozen map it performs no internal mutation.
func (m *Map) ForeachEntry(fn func(in Vec, outs []Vec) bool) {
	ins := m.sortedIns()
	m.ti.mu.RLock()
	vecs := make([]Vec, len(ins))
	for i, iid := range ins {
		vecs[i] = m.ti.vecs[iid]
	}
	m.ti.mu.RUnlock()
	for i, iid := range ins {
		e := m.rel[iid]
		if e.vecs == nil || !e.sorted {
			m.sortEntry(e)
		}
		if !fn(vecs[i], e.vecs) {
			return
		}
	}
}

// Image returns the single output related to in. It panics unless
// exactly one output exists; use Lookup for the general case. On
// single-valued maps Image performs no internal mutation, so it is
// safe for concurrent readers even without Freeze.
func (m *Map) Image(in Vec) Vec {
	iid, ok := m.ti.lookup(in)
	if ok {
		if e, found := m.rel[iid]; found && len(e.outs) == 1 {
			return m.to.vec(e.outs[0])
		} else if found {
			panic("isl: Map.Image: input " + in.String() + " has " +
				strconv.Itoa(len(e.outs)) + " outputs, want exactly 1")
		}
	}
	panic("isl: Map.Image: input " + in.String() + " has 0 outputs, want exactly 1")
}
