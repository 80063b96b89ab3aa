// Package schedtree implements the schedule-tree representation used
// by the transformation phase (§5.2): domain, band, sequence, mark,
// and expansion nodes, mirroring the ISL schedule-tree node types the
// paper manipulates, plus Algorithm 2, which rebuilds each statement's
// schedule so that loops iterating over pipeline blocks are separated
// from loops iterating inside blocks, with a mark node carrying the
// block dependency information.
package schedtree

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/isl"
)

// Node is one schedule-tree node.
type Node interface {
	// Kind returns the node-type name ("domain", "band", ...).
	Kind() string
	// children returns the ordered children.
	children() []Node
}

// DomainNode introduces the set of points scheduled by its subtree.
type DomainNode struct {
	Set   *isl.Set
	Child Node
}

// BandNode schedules its domain by a partial schedule. Algorithm 2
// only ever needs the identity partial schedule (lexicographic order
// over the band's points), so a band carries its domain and the
// identity over it is implied rather than materialized.
type BandNode struct {
	Set   *isl.Set
	Child Node
}

// SequenceNode runs its children one after another.
type SequenceNode struct {
	Children []Node
}

// MarkNode attaches an annotation to its subtree. Algorithm 2 places a
// mark carrying the task dependency information (the pw_multi_aff
// structures of §5.2) immediately above the intra-block band, so code
// generation can locate the pipeline loop.
type MarkNode struct {
	Name  string
	Task  *TaskAnnotation
	Child Node
}

// ExpansionNode expands each scheduled point of the outer tree into
// the set of points contracting to it: Contraction maps inner (full
// iteration) points to outer (block leader) points, exactly the E_S
// map of the detection phase.
type ExpansionNode struct {
	Contraction *isl.Map
	Child       Node
}

// LeafNode terminates a branch.
type LeafNode struct{}

func (n *DomainNode) Kind() string    { return "domain" }
func (n *BandNode) Kind() string      { return "band" }
func (n *SequenceNode) Kind() string  { return "sequence" }
func (n *MarkNode) Kind() string      { return "mark" }
func (n *ExpansionNode) Kind() string { return "expansion" }
func (n *LeafNode) Kind() string      { return "leaf" }

func (n *DomainNode) children() []Node    { return []Node{n.Child} }
func (n *BandNode) children() []Node      { return []Node{n.Child} }
func (n *SequenceNode) children() []Node  { return n.Children }
func (n *MarkNode) children() []Node      { return []Node{n.Child} }
func (n *ExpansionNode) children() []Node { return []Node{n.Child} }
func (n *LeafNode) children() []Node      { return nil }

// TaskAnnotation is the payload of the pipeline mark node: everything
// code generation needs to create one task per pipeline-loop iteration
// (§5.2's mark built from the Q_S pw_multi_aff_list and the Q'_S
// pw_multi_aff). It is the statement's detection result itself — Stmt,
// the blocking map E, the blocks in execution order, and InDeps (Q_S:
// block → required source block). The out-dependency Q'_S is the
// identity on Range(E): each block is named by its own leader.
type TaskAnnotation struct {
	*core.StmtInfo
}

// MarkName is the name of the mark node Algorithm 2 inserts.
const MarkName = "pipeline_task"

// Build implements Algorithm 2: for every statement S it creates
//
//	domain(Range(E_S)) → band(identity) → expansion(E_S) →
//	  domain(Domain(E_S)) → mark(task info) → band(identity) → leaf
//
// and sequences the per-statement trees in program order.
func Build(info *core.Info) *SequenceNode {
	seq := &SequenceNode{Children: make([]Node, 0, len(info.Stmts))}
	for _, si := range info.Stmts {
		re := si.E.Range()
		de := si.E.Domain()

		inner := &DomainNode{
			Set: de,
			Child: &MarkNode{
				Name:  MarkName,
				Task:  &TaskAnnotation{StmtInfo: si},
				Child: &BandNode{Set: de, Child: &LeafNode{}},
			},
		}
		outer := &DomainNode{
			Set: re,
			Child: &BandNode{
				Set: re,
				Child: &ExpansionNode{
					Contraction: si.E,
					Child:       inner,
				},
			},
		}
		seq.Children = append(seq.Children, outer)
	}
	return seq
}

// Validate checks the structural invariants of a transformed schedule
// tree: every sequence child is a per-statement subtree of the exact
// Algorithm 2 shape, the outer domain equals the contraction's range,
// the inner domain equals its domain, bands schedule exactly their
// enclosing domains, and the mark node carries a complete task
// annotation whose blocks are led by exactly the contraction's range
// (so the implied out-dependency is the identity on the leaders).
func Validate(root *SequenceNode) error {
	for i, child := range root.Children {
		if err := validateStmtTree(child); err != nil {
			return fmt.Errorf("schedtree: subtree %d: %w", i, err)
		}
	}
	return nil
}

func validateStmtTree(n Node) error {
	outerDom, ok := n.(*DomainNode)
	if !ok {
		return fmt.Errorf("root is %s, want domain", n.Kind())
	}
	outerBand, ok := outerDom.Child.(*BandNode)
	if !ok {
		return fmt.Errorf("under outer domain: %s, want band", outerDom.Child.Kind())
	}
	if !outerBand.Set.Equal(outerDom.Set) {
		return fmt.Errorf("outer band schedule domain differs from the domain node")
	}
	exp, ok := outerBand.Child.(*ExpansionNode)
	if !ok {
		return fmt.Errorf("under outer band: %s, want expansion", outerBand.Child.Kind())
	}
	if !exp.Contraction.Range().Equal(outerDom.Set) {
		return fmt.Errorf("contraction range differs from the outer domain")
	}
	innerDom, ok := exp.Child.(*DomainNode)
	if !ok {
		return fmt.Errorf("under expansion: %s, want domain", exp.Child.Kind())
	}
	if !exp.Contraction.Domain().Equal(innerDom.Set) {
		return fmt.Errorf("contraction domain differs from the inner domain")
	}
	mark, ok := innerDom.Child.(*MarkNode)
	if !ok || mark.Name != MarkName {
		return fmt.Errorf("under inner domain: no %q mark", MarkName)
	}
	if mark.Task == nil || mark.Task.StmtInfo == nil {
		return fmt.Errorf("mark has no task annotation")
	}
	if !mark.Task.E.Equal(exp.Contraction) {
		return fmt.Errorf("annotation blocking map differs from the contraction")
	}
	if len(mark.Task.Blocks) != outerDom.Set.Card() {
		return fmt.Errorf("annotation has %d blocks for %d block leaders", len(mark.Task.Blocks), outerDom.Set.Card())
	}
	for i := range mark.Task.Blocks {
		if !outerDom.Set.Contains(mark.Task.Blocks[i].Leader) {
			return fmt.Errorf("annotation block %d is led by %v, not a block leader", i, mark.Task.Blocks[i].Leader)
		}
	}
	innerBand, ok := mark.Child.(*BandNode)
	if !ok {
		return fmt.Errorf("under mark: %s, want band", mark.Child.Kind())
	}
	if !innerBand.Set.Equal(innerDom.Set) {
		return fmt.Errorf("inner band schedule domain differs from the statement domain")
	}
	if _, ok := innerBand.Child.(*LeafNode); !ok {
		return fmt.Errorf("under inner band: %s, want leaf", innerBand.Child.Kind())
	}
	return nil
}

// String renders the tree in an indented ISL-like textual form with
// large sets summarized by cardinality.
func String(root Node) string {
	var b strings.Builder
	print(&b, root, 0)
	return b.String()
}

func print(b *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch node := n.(type) {
	case *SequenceNode:
		fmt.Fprintf(b, "%ssequence:\n", indent)
		for _, c := range node.Children {
			print(b, c, depth+1)
		}
	case *DomainNode:
		fmt.Fprintf(b, "%sdomain: %s\n", indent, summarizeSet(node.Set))
		print(b, node.Child, depth+1)
	case *BandNode:
		fmt.Fprintf(b, "%sband: identity over %s\n", indent, summarizeSet(node.Set))
		print(b, node.Child, depth+1)
	case *ExpansionNode:
		fmt.Fprintf(b, "%sexpansion: contraction %s -> %s\n", indent,
			node.Contraction.InSpace(), node.Contraction.OutSpace())
		print(b, node.Child, depth+1)
	case *MarkNode:
		if node.Task == nil {
			fmt.Fprintf(b, "%smark: %q\n", indent, node.Name)
		} else {
			deps := make([]string, 0, len(node.Task.InDeps))
			for _, d := range node.Task.InDeps {
				deps = append(deps, d.Src.Name)
			}
			fmt.Fprintf(b, "%smark: %q stmt=%s in-deps=[%s]\n", indent,
				node.Name, node.Task.Stmt.Name, strings.Join(deps, ", "))
		}
		print(b, node.Child, depth+1)
	case *LeafNode:
		fmt.Fprintf(b, "%sleaf\n", indent)
	}
}

func summarizeSet(s *isl.Set) string {
	if s.Card() <= 8 {
		return s.String()
	}
	return fmt.Sprintf("{ %s : %d points }", s.Space(), s.Card())
}
