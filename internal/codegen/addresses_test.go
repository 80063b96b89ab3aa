package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isl"
	"repro/internal/runtime"
)

// block is one of the paper's per-block tasks: block b of a
// statement. blocks lists them in id order, the order PrecedenceEdges
// numbers them in.
type block struct {
	si *core.StmtInfo
	b  int
}

func (k block) label() string { return fmt.Sprintf("%s%v", k.si.Stmt.Name, k.si.Blocks[k.b].Leader) }

func blocks(p *TaskProgram) []block {
	out := make([]block, 0, p.NumTasks())
	for _, si := range p.Stmts {
		for b := range si.Blocks {
			out = append(out, block{si, b})
		}
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
// in-dependency order. Nothing executed or emitted reads the
// addresses; they are the reference runtime.Builder resolves.
func addresses(p *TaskProgram) (out []int, in [][]int) {
	coder := newCoder(p.Stmts, len(p.SCoP.Stmts))
	for _, k := range blocks(p) {
		var ins []int
		for _, dep := range k.si.InDeps {
			if q := dep.To[k.b]; q >= 0 {
				ins = append(ins, coder.Encode(dep.Src.Index, p.Stmts[dep.Src.Index].Blocks[q].Leader))
			}
		}
		out = append(out, coder.Encode(k.si.Stmt.Index, k.si.Blocks[k.b].Leader))
		in = append(in, ins)
	}
	return out, in
}

// builderReplay is how BuildIR lowered before it read the columns:
// every block through runtime.Builder, its §5.4 addresses and its
// statement's serial key resolved against the last-writer and
// last-serial tables.
func builderReplay(p *TaskProgram) *runtime.Program {
	outs, ins := addresses(p)
	b := runtime.NewBuilder(len(outs))
	for i, k := range blocks(p) {
		b.Add(runtime.Task{Out: outs[i], In: ins[i], Serial: k.si.Stmt.Index})
	}
	return b.Build()
}

// PerBlockIR lowers the program with runs of one block: the paper's
// per-block DAG. It is exported to the package's external tests.
func (p *TaskProgram) PerBlockIR() *runtime.Program {
	return p.buildIR(chainRuns(p.Stmts, max(p.NumTasks(), 1)))
}
