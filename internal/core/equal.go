package core

import (
	"fmt"
	"slices"
)

// EqualInfo reports whether two detection results are structurally
// identical: the same pairs with equal T/V/Y maps, equal integrated E
// maps, equal domains and block lists, and equal in-dependencies. A nil
// return means equal; otherwise the error names the first divergence.
//
// Statement identity is compared by schedule position and name rather
// than pointer, so results detected from two separately built SCoPs
// with the same content (the cache-serving case, internal/cache) are
// comparable. For two results over the same *SCoP this degenerates to
// the pointer comparison the determinism test always performed.
func EqualInfo(a, b *Info) error {
	if len(a.Pairs) != len(b.Pairs) {
		return fmt.Errorf("pair count %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		p, q := a.Pairs[i], b.Pairs[i]
		if p.Src.Index != q.Src.Index || p.Src.Name != q.Src.Name ||
			p.Dst.Index != q.Dst.Index || p.Dst.Name != q.Dst.Name {
			return fmt.Errorf("pair %d is %s->%s vs %s->%s", i, p.Src.Name, p.Dst.Name, q.Src.Name, q.Dst.Name)
		}
		if !p.T.Equal(q.T) || !p.V.Equal(q.V) || !p.Y.Equal(q.Y) {
			return fmt.Errorf("pair %d (%s->%s) maps differ", i, p.Src.Name, p.Dst.Name)
		}
	}
	if len(a.Stmts) != len(b.Stmts) {
		return fmt.Errorf("stmt count %d vs %d", len(a.Stmts), len(b.Stmts))
	}
	for i := range a.Stmts {
		x, y := a.Stmts[i], b.Stmts[i]
		if x.Stmt.Index != y.Stmt.Index || x.Stmt.Name != y.Stmt.Name {
			return fmt.Errorf("stmt %d is %s vs %s", i, x.Stmt.Name, y.Stmt.Name)
		}
		if !x.E.Equal(y.E) {
			return fmt.Errorf("stmt %s: E differs", x.Stmt.Name)
		}
		// Blocks are intervals of the domain, so equal domains and equal
		// intervals mean equal member lists.
		if !x.Stmt.Domain.Equal(y.Stmt.Domain) {
			return fmt.Errorf("stmt %s: domains differ", x.Stmt.Name)
		}
		if len(x.Blocks) != len(y.Blocks) {
			return fmt.Errorf("stmt %s: %d vs %d blocks", x.Stmt.Name, len(x.Blocks), len(y.Blocks))
		}
		for j := range x.Blocks {
			p, q := &x.Blocks[j], &y.Blocks[j]
			if !p.Leader.Eq(q.Leader) {
				return fmt.Errorf("stmt %s block %d: leader %v vs %v", x.Stmt.Name, j, p.Leader, q.Leader)
			}
			if p.First != q.First || p.Last != q.Last {
				return fmt.Errorf("stmt %s block %d: members %d..%d vs %d..%d", x.Stmt.Name, j, p.First, p.Last, q.First, q.Last)
			}
		}
		if len(x.InDeps) != len(y.InDeps) {
			return fmt.Errorf("stmt %s: %d vs %d in-deps", x.Stmt.Name, len(x.InDeps), len(y.InDeps))
		}
		// With every statement's blocks equal, equal source-block
		// positions mean equal relations.
		for j := range x.InDeps {
			if x.InDeps[j].Src.Index != y.InDeps[j].Src.Index || x.InDeps[j].Src.Name != y.InDeps[j].Src.Name {
				return fmt.Errorf("stmt %s in-dep %d: src %s vs %s", x.Stmt.Name, j, x.InDeps[j].Src.Name, y.InDeps[j].Src.Name)
			}
			if !slices.Equal(x.InDeps[j].To, y.InDeps[j].To) {
				return fmt.Errorf("stmt %s in-dep %d (from %s): relation differs", x.Stmt.Name, j, x.InDeps[j].Src.Name)
			}
		}
	}
	return nil
}
