// Package deps computes memory-based dependences between the
// statements of a SCoP. It provides the two analyses the rest of the
// system needs:
//
//   - cross-statement flow dependences (write in an earlier nest, read
//     in a later nest), which drive pipeline detection, and
//   - intra-statement dependence testing per loop dimension, which
//     drives the Polly-style per-loop parallelization baseline.
package deps

import (
	"fmt"
	"sync"

	"repro/internal/isl"
	"repro/internal/scop"
)

// Kind classifies a dependence.
type Kind int

const (
	// Flow is a read-after-write dependence.
	Flow Kind = iota
	// Anti is a write-after-read dependence.
	Anti
	// Output is a write-after-write dependence.
	Output
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Graph holds the dependences of one SCoP. Its relations are lazy:
// Analyze records only the SCoP, and each flow[src][dst] and intra[s]
// relation is computed from the access relations the first time an
// accessor asks for it, frozen, and kept. Detection itself only ever
// asks whether a pair is dependent at all (DependsOn, Targets), which a
// range-intersection test answers without building the relation.
//
// Every cell is guarded by its own sync.Once and frozen before it is
// published, so a Graph — including one inside a cached, shared
// core.Info — is safe for any number of concurrent readers.
type Graph struct {
	scop *scop.SCoP
	// flow[src][dst] is the union of flow-dependence relations from
	// iterations of statement src to iterations of statement dst,
	// indexed by statement Index; nil once computed means independent.
	flow [][]cell
	// intra[s] holds unordered intra-statement conflict pairs (i, j)
	// with i ≺ j for statement s, across flow, anti, and output
	// conflicts. Used for per-dimension parallelism tests.
	intra []cell
	// winv[s] is the inverse of statement s's write relation, shared by
	// every consumer that composes through it.
	winv []cell
}

// cell is one lazily computed relation.
type cell struct {
	once sync.Once
	m    *isl.Map
}

// get returns the cell's relation, computing it on first use.
func (c *cell) get(compute func() *isl.Map) *isl.Map {
	c.once.Do(func() { c.m = compute() })
	return c.m
}

// Analyze returns the dependence graph of sc. No relation is computed
// until it is asked for.
func Analyze(sc *scop.SCoP) *Graph {
	n := len(sc.Stmts)
	g := &Graph{
		scop:  sc,
		flow:  make([][]cell, n),
		intra: make([]cell, n),
		winv:  make([]cell, n),
	}
	for i := range g.flow {
		g.flow[i] = make([]cell, n)
	}
	return g
}

// WriteInverse returns Wr⁻¹ of s's write access (array cell → writing
// iterations), computed once per graph. The result is normalized and
// must be treated as read-only; s must have a write access.
func (g *Graph) WriteInverse(s *scop.Statement) *isl.Map {
	return g.winv[s.Index].get(s.Write.Rel.Inverse)
}

// flowRelation returns the write→read relation from src to dst over all
// arrays, or nil when there is none. For src == dst only pairs (i, j)
// with i ≺ j count (a read of the value produced by an earlier
// iteration of the same nest).
func flowRelation(src, dst *scop.Statement) *isl.Map {
	if src.Write == nil || dst.Index < src.Index {
		return nil // program order: sources precede targets
	}
	var union *isl.Map
	w := src.Write
	for _, rd := range dst.ReadsFrom(w.Array()) {
		// (i, j) such that ∃m: w(i) = m ∧ rd(j) = m.
		rel := isl.Compose(rd.Inverse(), w.Rel)
		if union == nil {
			union = rel
		} else {
			union = union.Union(rel)
		}
	}
	if union != nil && src == dst {
		union = restrictForward(union)
	}
	if union == nil || union.IsEmpty() {
		return nil
	}
	return union.Freeze()
}

// restrictForward keeps only pairs (i, j) with i ≺ j.
func restrictForward(m *isl.Map) *isl.Map {
	r := isl.NewMap(m.InSpace(), m.OutSpace())
	m.Foreach(func(i, j isl.Vec) bool {
		if i.Cmp(j) < 0 {
			r.Add(i, j)
		}
		return true
	})
	return r
}

// intraConflicts returns all unordered conflict pairs (i ≺ j) between
// iterations of s: flow, anti, and output conflicts through any array.
func (g *Graph) intraConflicts(s *scop.Statement) *isl.Map {
	res := isl.NewMap(s.Domain.Space(), s.Domain.Space())
	if s.Write == nil {
		return res.Freeze()
	}
	w := s.Write.Rel
	add := func(rel *isl.Map) {
		rel.Foreach(func(a, b isl.Vec) bool {
			switch a.Cmp(b) {
			case -1:
				res.Add(a, b)
			case 1:
				res.Add(b, a)
			}
			return true
		})
	}
	// Output conflicts: same location written twice. An injective write
	// (the validated case) composes with its inverse to the identity,
	// which holds no pair of distinct iterations.
	if wInv := g.WriteInverse(s); !wInv.IsSingleValued() {
		add(isl.Compose(wInv, w))
	}
	// Flow/anti conflicts: write at one iteration, read at another.
	for _, rd := range s.ReadsFrom(s.Write.Array()) {
		add(isl.Compose(rd.Inverse(), w))
	}
	return res.Freeze()
}

// Flow returns the flow-dependence relation from src to dst, or nil
// when dst does not depend on src.
func (g *Graph) Flow(src, dst *scop.Statement) *isl.Map {
	return g.flow[src.Index][dst.Index].get(func() *isl.Map { return flowRelation(src, dst) })
}

// intraOf returns the conflict relation of s.
func (g *Graph) intraOf(s *scop.Statement) *isl.Map {
	return g.intra[s.Index].get(func() *isl.Map { return g.intraConflicts(s) })
}

// DependsOn reports whether dst has a flow dependence on src. Between
// two different statements that is the case exactly when some read of
// dst touches a cell src writes, so the ranges are intersected and the
// relation itself is left unbuilt.
func (g *Graph) DependsOn(dst, src *scop.Statement) bool {
	if src == dst {
		return g.Flow(src, dst) != nil
	}
	if src.Write == nil || dst.Index < src.Index {
		return false
	}
	reads := dst.ReadsFrom(src.Write.Array())
	if len(reads) == 0 {
		return false
	}
	written := g.WriteInverse(src).Domain()
	for _, rd := range reads {
		if !rd.Range().Intersect(written).IsEmpty() {
			return true
		}
	}
	return false
}

// Sources returns the statements that dst directly flow-depends on,
// excluding itself, in program order.
func (g *Graph) Sources(dst *scop.Statement) []*scop.Statement {
	var out []*scop.Statement
	for _, src := range g.scop.Stmts {
		if src != dst && g.DependsOn(dst, src) {
			out = append(out, src)
		}
	}
	return out
}

// Targets returns the statements that directly flow-depend on src,
// excluding itself, in program order.
func (g *Graph) Targets(src *scop.Statement) []*scop.Statement {
	var out []*scop.Statement
	for _, dst := range g.scop.Stmts {
		if dst != src && g.DependsOn(dst, src) {
			out = append(out, dst)
		}
	}
	return out
}

// ParallelDims reports, per loop dimension of s, whether the loop at
// that depth can run its iterations in parallel: no intra-statement
// conflict relates two iterations that agree on all outer dimensions
// and differ at this one. This is the test a Polly-style per-loop
// parallelizer applies.
func (g *Graph) ParallelDims(s *scop.Statement) []bool {
	depth := s.Depth()
	par := make([]bool, depth)
	for d := range par {
		par[d] = true
	}
	g.intraOf(s).Foreach(func(i, j isl.Vec) bool {
		for d := 0; d < depth; d++ {
			if i[d] != j[d] {
				// The conflict is carried by dimension d.
				par[d] = false
				break
			}
		}
		return true
	})
	return par
}

// CrossHazards returns an error when a later statement writes to memory
// that an earlier statement reads or writes, i.e. when cross-statement
// anti or output dependences exist. The pipeline transformation assumes
// programs free of such hazards (each nest writes its own array), so
// callers should reject these SCoPs rather than transform them
// incorrectly.
func CrossHazards(sc *scop.SCoP) error {
	for _, late := range sc.Stmts {
		if late.Write == nil {
			continue
		}
		wRange := late.Write.Rel.Range()
		for _, early := range sc.Stmts {
			if early.Index >= late.Index {
				break
			}
			if early.Write != nil && early.Write.Array() == late.Write.Array() {
				if !early.Write.Rel.Range().Intersect(wRange).IsEmpty() {
					return fmt.Errorf("deps: output hazard: statements %q and %q both write array %q",
						early.Name, late.Name, late.Write.Array())
				}
			}
			for _, rd := range early.ReadsFrom(late.Write.Array()) {
				if !rd.Range().Intersect(wRange).IsEmpty() {
					return fmt.Errorf("deps: anti hazard: statement %q overwrites array %q read by earlier statement %q",
						late.Name, late.Write.Array(), early.Name)
				}
			}
		}
	}
	return nil
}
