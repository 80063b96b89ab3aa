package schedtree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/isl"
	"repro/internal/kernels"
	"repro/internal/scop"
)

func detect(t *testing.T, n int) *core.Info {
	t.Helper()
	info, err := core.Detect(kernels.Listing3(n).SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestBuildShape(t *testing.T) {
	info := detect(t, 12)
	tree := Build(info)
	if len(tree.Children) != 3 {
		t.Fatalf("sequence children = %d, want 3", len(tree.Children))
	}
	// Each per-statement subtree: domain -> band -> expansion ->
	// domain -> mark -> band -> leaf.
	for i, c := range tree.Children {
		dom, ok := c.(*DomainNode)
		if !ok {
			t.Fatalf("child %d: %s, want domain", i, c.Kind())
		}
		band, ok := dom.Child.(*BandNode)
		if !ok {
			t.Fatalf("child %d: %s under domain, want band", i, dom.Child.Kind())
		}
		exp, ok := band.Child.(*ExpansionNode)
		if !ok {
			t.Fatalf("child %d: %s under band, want expansion", i, band.Child.Kind())
		}
		innerDom, ok := exp.Child.(*DomainNode)
		if !ok {
			t.Fatalf("child %d: %s under expansion, want domain", i, exp.Child.Kind())
		}
		mark, ok := innerDom.Child.(*MarkNode)
		if !ok {
			t.Fatalf("child %d: %s under inner domain, want mark", i, innerDom.Child.Kind())
		}
		if mark.Name != MarkName || mark.Task == nil {
			t.Fatalf("child %d: mark = %q task=%v", i, mark.Name, mark.Task)
		}
		innerBand, ok := mark.Child.(*BandNode)
		if !ok {
			t.Fatalf("child %d: %s under mark, want band", i, mark.Child.Kind())
		}
		if _, ok := innerBand.Child.(*LeafNode); !ok {
			t.Fatalf("child %d: %s under inner band, want leaf", i, innerBand.Child.Kind())
		}
		// The outer domain is the leaders, the inner the full domain.
		st := info.Stmts[i]
		if !dom.Set.Equal(st.E.Range()) {
			t.Errorf("child %d: outer domain is not Range(E)", i)
		}
		if !innerDom.Set.Equal(st.Stmt.Domain) {
			t.Errorf("child %d: inner domain is not the statement domain", i)
		}
		if !exp.Contraction.Equal(st.E) {
			t.Errorf("child %d: contraction differs from E", i)
		}
		if !band.Set.Equal(dom.Set) || !innerBand.Set.Equal(innerDom.Set) {
			t.Errorf("child %d: a band does not schedule its enclosing domain", i)
		}
	}
}

func TestFlattenMatchesDetectedBlocks(t *testing.T) {
	info := detect(t, 16)
	tasks := Flatten(Build(info))

	want := 0
	for _, si := range info.Stmts {
		want += len(si.Blocks)
	}
	if len(tasks) != want {
		t.Fatalf("tasks = %d, want %d", len(tasks), want)
	}

	// Tasks appear statement by statement (sequence order), blocks in
	// leader order, members in lexicographic order, and agree exactly
	// with the detection-phase blocks.
	idx := 0
	for _, si := range info.Stmts {
		first := idx
		for _, blk := range si.Blocks {
			task := tasks[idx]
			idx++
			if task.Task.Stmt != si.Stmt {
				t.Fatalf("task %d: stmt %s, want %s", idx-1, task.Task.Stmt.Name, si.Stmt.Name)
			}
			if task.Task.StmtInfo != si || task.Block != idx-1-first {
				t.Fatalf("task %d: block %d of %s, want block %d", idx-1, task.Block, task.Task.Stmt.Name, idx-1-first)
			}
			if got := task.Task.Members(task.Block); len(got) != blk.Len() || !got[0].Eq(si.Stmt.Domain.Elements()[blk.First]) {
				t.Fatalf("task %d: members %v, want positions %d..%d", idx-1, got, blk.First, blk.Last)
			}
		}
	}
}

// enumTask is one task of the enumerative evaluation below.
type enumTask struct {
	Task    *TaskAnnotation
	Leader  isl.Vec
	Members []isl.Vec
}

// flattenEnumerative is the reference evaluation of a schedule tree,
// the way Flatten worked before it read detection's blocks: band nodes
// order points lexicographically (identity partial schedules), an
// expansion node replaces each block leader with the points contracting
// to it, and the mark node closes one task over whatever points are
// active. active is the current point filter: inside an expansion it
// restricts the inner domain to one block.
func flattenEnumerative(n Node, active *isl.Set, out *[]enumTask) {
	switch node := n.(type) {
	case *SequenceNode:
		for _, c := range node.Children {
			flattenEnumerative(c, active, out)
		}
	case *DomainNode:
		set := node.Set
		if active != nil {
			set = set.Intersect(active)
		}
		flattenEnumerative(node.Child, set, out)
	case *BandNode:
		flattenEnumerative(node.Child, active, out)
	case *ExpansionNode:
		inv := node.Contraction.Inverse()
		for _, leader := range active.Elements() {
			members := isl.NewSet(node.Contraction.InSpace())
			for _, m := range inv.Lookup(leader) {
				members.Add(m)
			}
			flattenEnumerative(node.Child, members, out)
		}
	case *MarkNode:
		if active == nil || active.IsEmpty() {
			return
		}
		leader, _ := active.Lexmax()
		*out = append(*out, enumTask{Task: node.Task, Leader: leader, Members: active.Elements()})
	}
}

// TestFlattenEqualsEnumerativeEvaluation holds the block view against
// the tree's own semantics: same tasks, same order, same leaders, same
// members in the same order — over Table 9, an nmm chain, and random
// SCoPs. Task granularity is the chain plan's (codegen) and never
// reaches the tree.
func TestFlattenEqualsEnumerativeEvaluation(t *testing.T) {
	type input struct {
		name string
		sc   *scop.SCoP
	}
	var inputs []input
	for _, spec := range kernels.Table9 {
		inputs = append(inputs, input{spec.Name, kernels.BuildTable9(spec, 8, 1).SCoP})
	}
	inputs = append(inputs, input{"3mm", kernels.MMChain(3, 8, kernels.MM).SCoP})
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		sc := fuzzscop.Random(rand.New(rand.NewSource(int64(seed))), fuzzscop.Config{Sink: seed%2 == 0})
		inputs = append(inputs, input{fmt.Sprintf("fuzz-%d", seed), sc})
	}
	for _, in := range inputs {
		info, err := core.Detect(in.sc, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		tree := Build(info)
		got := Flatten(tree)
		var want []enumTask
		flattenEnumerative(tree, nil, &want)
		if len(got) != len(want) {
			t.Fatalf("%s: %d tasks, enumerative evaluation gives %d", in.name, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			gl, gm := g.Task.Blocks[g.Block].Leader, g.Task.Members(g.Block)
			if g.Task != w.Task || !gl.Eq(w.Leader) || len(gm) != len(w.Members) {
				t.Fatalf("%s task %d: %s%v with %d members, want %s%v with %d",
					in.name, i, g.Task.Stmt.Name, gl, len(gm), w.Task.Stmt.Name, w.Leader, len(w.Members))
			}
			for k := range w.Members {
				if !gm[k].Eq(w.Members[k]) {
					t.Fatalf("%s task %d member %d: %v, want %v", in.name, i, k, gm[k], w.Members[k])
				}
			}
		}
	}
}

func TestFlattenCoversEveryIteration(t *testing.T) {
	info := detect(t, 12)
	tasks := Flatten(Build(info))
	seen := make(map[string]map[string]bool)
	for _, task := range tasks {
		name := task.Task.Stmt.Name
		if seen[name] == nil {
			seen[name] = make(map[string]bool)
		}
		for _, m := range task.Task.Members(task.Block) {
			k := m.String()
			if seen[name][k] {
				t.Fatalf("iteration %s%v scheduled twice", name, m)
			}
			seen[name][k] = true
		}
	}
	for _, si := range info.Stmts {
		if got := len(seen[si.Stmt.Name]); got != si.Stmt.Domain.Card() {
			t.Errorf("%s: %d iterations scheduled, want %d", si.Stmt.Name, got, si.Stmt.Domain.Card())
		}
	}
}

func TestWalkAndCount(t *testing.T) {
	info := detect(t, 12)
	tree := Build(info)
	counts := Count(tree)
	want := map[string]int{
		"sequence":  1,
		"domain":    6, // outer + inner per statement
		"band":      6,
		"expansion": 3,
		"mark":      3,
		"leaf":      3,
	}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%s nodes = %d, want %d (all: %v)", kind, counts[kind], n, counts)
		}
	}
	// Early stop: visiting stops after the first node.
	visited := 0
	Walk(tree, func(Node) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Fatalf("early-stop visited %d nodes", visited)
	}
	Walk(nil, func(Node) bool { t.Fatal("visited nil"); return true })
}

func TestValidateRejectsMoreMutations(t *testing.T) {
	mutate := func(t *testing.T, f func(*SequenceNode)) {
		t.Helper()
		tree := Build(detect(t, 12))
		f(tree)
		if err := Validate(tree); err == nil {
			t.Error("mutated tree accepted")
		}
	}
	// Outer band schedule over the wrong set.
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		band := outer.Child.(*BandNode)
		other := detect(t, 16)
		band.Set = other.Stmts[0].E.Range()
	})
	// Expansion replaced by a leaf.
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		outer.Child.(*BandNode).Child = &LeafNode{}
	})
	// Mark with a nil task.
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		exp := outer.Child.(*BandNode).Child.(*ExpansionNode)
		exp.Child.(*DomainNode).Child.(*MarkNode).Task = nil
	})
	// Annotation blocks that do not match the block leaders (the
	// implied out-dependency would name tasks that do not exist).
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		exp := outer.Child.(*BandNode).Child.(*ExpansionNode)
		mark := exp.Child.(*DomainNode).Child.(*MarkNode)
		mark.Task.Blocks = mark.Task.Blocks[:1]
	})
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		exp := outer.Child.(*BandNode).Child.(*ExpansionNode)
		mark := exp.Child.(*DomainNode).Child.(*MarkNode)
		blocks := append([]core.Block(nil), mark.Task.Blocks...)
		blocks[0].Leader = blocks[0].Leader.Clone()
		blocks[0].Leader[0] += 1000
		mark.Task.Blocks = blocks
	})
	// Inner band over the wrong set.
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		exp := outer.Child.(*BandNode).Child.(*ExpansionNode)
		mark := exp.Child.(*DomainNode).Child.(*MarkNode)
		mark.Child.(*BandNode).Set = outer.Set
	})
	// Inner band missing.
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		exp := outer.Child.(*BandNode).Child.(*ExpansionNode)
		exp.Child.(*DomainNode).Child.(*MarkNode).Child = &LeafNode{}
	})
	// Domain under outer domain instead of band.
	mutate(t, func(tree *SequenceNode) {
		outer := tree.Children[0].(*DomainNode)
		outer.Child = &DomainNode{Set: outer.Set, Child: &LeafNode{}}
	})
}

func TestValidateAcceptsBuiltTrees(t *testing.T) {
	for _, n := range []int{8, 12, 20} {
		info := detect(t, n)
		if err := Validate(Build(info)); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestValidateRejectsBrokenTrees(t *testing.T) {
	info := detect(t, 12)

	// Missing mark.
	tree := Build(info)
	outer := tree.Children[0].(*DomainNode)
	exp := outer.Child.(*BandNode).Child.(*ExpansionNode)
	inner := exp.Child.(*DomainNode)
	savedMark := inner.Child
	inner.Child = &LeafNode{}
	if err := Validate(tree); err == nil {
		t.Error("missing mark accepted")
	}
	inner.Child = savedMark

	// Wrong contraction.
	saved := exp.Contraction
	other := detect(t, 16)
	exp.Contraction = other.Stmts[0].E
	if err := Validate(tree); err == nil {
		t.Error("foreign contraction accepted")
	}
	exp.Contraction = saved

	// Non-domain root of a subtree.
	bad := &SequenceNode{Children: []Node{&LeafNode{}}}
	if err := Validate(bad); err == nil {
		t.Error("leaf subtree accepted")
	}
	if err := Validate(tree); err != nil {
		t.Errorf("restored tree rejected: %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	info := detect(t, 12)
	out := String(Build(info))
	for _, want := range []string{"sequence:", "expansion:", "mark: \"pipeline_task\"", "stmt=U", "in-deps=[S, R]", "leaf"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q in:\n%s", want, out)
		}
	}
}

func TestStringBareMark(t *testing.T) {
	out := String(&MarkNode{Name: "note", Child: &LeafNode{}})
	if !strings.Contains(out, `mark: "note"`) || !strings.Contains(out, "leaf") {
		t.Fatalf("rendering of a mark without a task annotation:\n%s", out)
	}
}

func TestFlattenUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	type bogus struct{ LeafNode }
	Flatten(&SequenceNode{Children: []Node{&bogus{}}})
}
