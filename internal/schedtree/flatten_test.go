package schedtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// TaskInstance is one scheduled task: block Block of the annotated
// statement (its members are Task.Members(Block)).
type TaskInstance struct {
	Task  *TaskAnnotation
	Block int
}

// Flatten lists the totally ordered task instances the schedule tree
// denotes: sequence children in order, and under each pipeline mark one
// task per block of the annotated statement, in execution order. The
// blocks are the ones detection materialized (StmtInfo.Blocks) — by
// construction what evaluating the expansion node over the band's
// points yields (TestFlattenEqualsEnumerativeEvaluation) — so the
// instances alias them rather than re-deriving each block from the
// contraction. It is the order codegen's chain plan must follow
// (TestChainRunsFollowFlatten).
func Flatten(root Node) []TaskInstance {
	var out []TaskInstance
	flatten(root, &out)
	return out
}

func flatten(n Node, out *[]TaskInstance) {
	switch node := n.(type) {
	case *SequenceNode:
		for _, c := range node.Children {
			flatten(c, out)
		}
	case *DomainNode, *BandNode, *ExpansionNode:
		flatten(n.children()[0], out)
	case *MarkNode:
		if node.Task == nil {
			flatten(node.Child, out)
			return
		}
		if node.Task.StmtInfo == nil {
			panic("schedtree: pipeline mark without a detection result")
		}
		// The band below the mark is subsumed by the members' order.
		n := len(node.Task.Blocks)
		*out = slices.Grow(*out, n)
		for i := 0; i < n; i++ {
			*out = append(*out, TaskInstance{Task: node.Task, Block: i})
		}
	case *LeafNode:
	default:
		panic(fmt.Sprintf("schedtree: unknown node %T", n))
	}
}

// Walk visits every node of the tree depth-first, parents before
// children, stopping early when fn returns false.
func Walk(root Node, fn func(Node) bool) {
	if root == nil || !fn(root) {
		return
	}
	for _, c := range root.children() {
		Walk(c, fn)
	}
}

// Count returns the number of nodes of each kind in the tree.
func Count(root Node) map[string]int {
	counts := map[string]int{}
	Walk(root, func(n Node) bool {
		counts[n.Kind()]++
		return true
	})
	return counts
}

// TestChainRunsFollowFlatten: codegen cuts its chain plan straight
// from detection in statement-index order, without building the tree.
// Its runs, concatenated block by block, are exactly the task instances
// the schedule tree denotes, in order — over Table 9 P1–P10 at n = 16
// and 32, 200 random SCoPs (every other one shifted) and the nmm
// chains, each detected with default options and with PairwiseBlocks,
// and compiled at MinBlockIters 1 and (with default options) 4.
func TestChainRunsFollowFlatten(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	var names []string
	var scs []*scop.SCoP
	for _, spec := range kernels.Table9 {
		for _, n := range []int{16, 32} {
			names = append(names, fmt.Sprintf("%s/n=%d", spec.Name, n))
			scs = append(scs, kernels.BuildTable9(spec, n, 1).SCoP)
		}
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		names = append(names, fmt.Sprintf("fuzz-%d", seed))
		scs = append(scs, fuzzscop.Random(rand.New(rand.NewSource(seed)), fuzzscop.Config{Shifted: seed%2 == 0}))
	}
	for _, v := range []kernels.Variant{kernels.MM, kernels.MMT, kernels.GMM, kernels.GMMT} {
		for n := 2; n <= 4; n++ {
			names = append(names, fmt.Sprintf("%d%s", n, v))
			scs = append(scs, kernels.MMChain(n, 6, v).SCoP)
		}
	}
	for k, sc := range scs {
		for _, opts := range []core.Options{{}, {PairwiseBlocks: true}, {MinBlockIters: 4}} {
			name := fmt.Sprintf("%s %+v", names[k], opts)
			info, err := core.Detect(sc, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prog, err := codegen.CompileForEmission(info, codegen.CompileOptions{MinBlockIters: opts.MinBlockIters})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := Flatten(Build(info))
			i := 0
			for _, r := range prog.ChainTasks() {
				for b := r.First; b <= r.Last; b++ {
					if i == len(want) {
						t.Fatalf("%s: runs hold more than Flatten's %d blocks", name, len(want))
					}
					if want[i].Task.StmtInfo != prog.Stmts[r.Stmt] || want[i].Block != int(b) {
						t.Fatalf("%s: task %d is block %d of statement %d; Flatten has block %d of %s", name, i, b, r.Stmt, want[i].Block, want[i].Task.Stmt.Name)
					}
					i++
				}
			}
			if i != len(want) {
				t.Fatalf("%s: runs hold %d blocks, Flatten %d", name, i, len(want))
			}
		}
	}
}
