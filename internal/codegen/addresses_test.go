package codegen

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/isl"
	"repro/internal/runtime"
)

// block is one of the paper's tasks: a grain of a statement, blocks
// First..Last, led by the leader of its last block. blocks lists them
// in id order, the order PrecedenceEdges numbers them in.
type block struct {
	si *core.StmtInfo
	ChainTask
}

func (k block) leader() isl.Vec { return k.si.Blocks[k.Last].Leader }

func (k block) label() string { return fmt.Sprintf("%s%v", k.si.Stmt.Name, k.leader()) }

func blocks(p *TaskProgram) []block {
	grains := p.Grains()
	out := make([]block, len(grains))
	for i, g := range grains {
		out[i] = block{p.Stmts[g.Stmt], g}
	}
	return out
}

// VecCoder converts block-leader vectors of a given statement to
// unique, non-negative integer dependency addresses, the §5.4
// "multiply each dimension by a large enough integer, add them, then
// pair with an index" scheme. Each coordinate x of dimension d becomes
// the digit x − Lo[d] + 1 ∈ [1, Stride).
type VecCoder struct {
	Stride   int
	NumStmts int
	// Lo[d] is the smallest coordinate any leader takes in dimension d,
	// clamped at 0 so domains that start at the origin keep the
	// addresses they always had; missing dimensions read as 0.
	Lo []int
}

// Encode returns the dependency address for the leader of a block of
// statement stmtIndex.
func (c VecCoder) Encode(stmtIndex int, leader isl.Vec) int {
	code := 0
	for d, x := range leader {
		if d < len(c.Lo) {
			x -= c.Lo[d]
		}
		code = code*c.Stride + (x + 1) // +1 keeps 0-coordinates distinct from absent dims
	}
	return code*c.NumStmts + stmtIndex
}

// newCoder sizes the digits from the coordinates of every block
// leader, the only vectors ever encoded.
func newCoder(stmts []*core.StmtInfo, numStmts int) VecCoder {
	var lo []int
	least, hi := 0, 0
	for _, si := range stmts {
		for b := range si.Blocks {
			for d, x := range si.Blocks[b].Leader {
				if d == len(lo) {
					lo = append(lo, 0)
				}
				lo[d] = min(lo[d], x)
				least, hi = min(least, x), max(hi, x)
			}
		}
	}
	return VecCoder{Stride: hi - least + 2, NumStmts: numStmts, Lo: lo}
}

// addresses returns the program's §5.4 dependency interface, the
// depend(out/in) clauses the paper's generated code creates its tasks
// with: block i's out address out[i] (the encoded leader of the block),
// and in[i], the out addresses of the source blocks it waits on, in
// in-dependency order — per in-dependency, the source block holding
// the largest To among its Eq. 3 blocks. Nothing executed or emitted
// reads the addresses; they are the reference resolve replays.
func addresses(p *TaskProgram) (out []int, in [][]int) {
	coder := newCoder(p.Stmts, len(p.SCoP.Stmts))
	all := blocks(p)
	// holder[s][b] is the task of statement s holding its block b.
	holder := make([][]block, len(p.Stmts))
	for _, k := range all {
		for b := k.First; b <= k.Last; b++ {
			holder[k.Stmt] = append(holder[k.Stmt], k)
		}
	}
	for _, k := range all {
		var ins []int
		for _, dep := range k.si.InDeps {
			if q := slices.Max(dep.To[k.First : k.Last+1]); q >= 0 {
				ins = append(ins, coder.Encode(dep.Src.Index, holder[dep.Src.Index][q].leader()))
			}
		}
		out = append(out, coder.Encode(k.si.Stmt.Index, k.leader()))
		in = append(in, ins)
	}
	return out, in
}

// resolve is the §5.5 reference the chain columns are checked
// against: it creates tasks in order, as the paper's tasking layer
// does, each writing outs[i], reading ins[i] and serialized after the
// last task with serial key keys[i], and resolves every task's
// predecessors against a last-writer and a last-serial table at
// creation — the writers of its in-addresses, then its serial
// predecessor, each edge once. It returns the edges as (predecessor,
// task) id pairs, by task in resolution order.
func resolve(outs []int, ins [][]int, keys []int) [][2]int {
	lastWriter, lastSerial := map[int]int{}, map[int]int{}
	var edges [][2]int
	for i := range outs {
		start := len(edges)
		add := func(q int) {
			for _, e := range edges[start:] {
				if e[0] == q {
					return
				}
			}
			edges = append(edges, [2]int{q, i})
		}
		for _, addr := range ins[i] {
			if w, ok := lastWriter[addr]; ok {
				add(w)
			}
		}
		if q, ok := lastSerial[keys[i]]; ok {
			add(q)
		}
		lastSerial[keys[i]], lastWriter[outs[i]] = i, i
	}
	return edges
}

// replay resolves the program's per-block tasks from their §5.4
// addresses, each block serialized under its statement's index,
// returning the edges and every block's serial key.
func replay(p *TaskProgram) (edges [][2]int, keys []int) {
	outs, ins := addresses(p)
	for _, k := range blocks(p) {
		keys = append(keys, k.si.Stmt.Index)
	}
	return resolve(outs, ins, keys), keys
}

// PerBlockIR builds the program with runs of one grain, through the
// same column function Compile uses: the paper's task DAG. It is
// exported to the package's external tests.
func (p *TaskProgram) PerBlockIR() *runtime.Program {
	grains := p.Grains()
	return p.build(grains, chainColumns(p.Stmts, grains))
}
