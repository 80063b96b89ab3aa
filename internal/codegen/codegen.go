// Package codegen lowers a detected pipeline structure to an
// executable task program, mirroring the paper's code-generation phase
// (§5.4). The paper makes one task per pipeline block; both back ends
// run a coarser plan of the same DAG. Compile cuts every statement's
// Eq. 3 blocks (core.StmtInfo.Blocks) into grains of MinBlockIters
// (§7) and the grains into runs, at most maxChainTasks per statement:
// the chain plan (ChainTasks), and computes its dependency columns once
// (Columns). Both back ends read those columns: BuildIR attaches bodies
// to them for the in-process executor, and ir.Lower copies them into
// the tasks of an emitted program. The DAG of the grains is a view
// computed on demand (Grains, PrecedenceEdges) for the simulator.
package codegen

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/isl"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scop"
)

// CompileOptions tunes code generation beyond the paper's prototype.
type CompileOptions struct {
	// MinBlockIters, when > 1, groups a statement's blocks into grains
	// of at least this many iterations (see cut), the §7 granularity
	// knob; callers copy it from core.Options.MinBlockIters.
	MinBlockIters int
	// Obs, when non-nil, receives the compile phase ("codegen.lower")
	// and the grain count ("codegen.tasks").
	Obs *obs.Recorder
}

// TaskProgram is the compiled pipelined program: the detection result
// per statement and the chain plan cut from its blocks.
type TaskProgram struct {
	SCoP *scop.SCoP
	Opts CompileOptions
	// Stmts is the detection result per statement, in index order,
	// shared and read-only: its Blocks are the paper's per-block tasks
	// and its InDeps' To columns their cross-statement edges.
	Stmts []*core.StmtInfo

	runs []ChainTask
	// cols holds the chain plan's lengths and predecessor columns,
	// computed once at compile time and shared, read-only, by every
	// program BuildIR builds and by the emission IR; its Run and Label
	// are nil.
	cols   runtime.ChainSpec
	grains int

	// lowered caches the compiled runtime IR (see Lower), built once
	// and reused by every run.
	lowerOnce sync.Once
	lowered   *runtime.Program
}

// Compile lowers the detection result to a task program. Every
// statement must carry an executable body. Tasks are produced in the
// order the transformed program creates them: statement by statement,
// blocks in execution order (the schedule-tree order).
func Compile(info *core.Info) (*TaskProgram, error) {
	return CompileWithOptions(info, CompileOptions{})
}

// CompileWithOptions is Compile with code-generation options.
func CompileWithOptions(info *core.Info, opts CompileOptions) (*TaskProgram, error) {
	if !info.SCoP.HasBodies() {
		return nil, fmt.Errorf("codegen: scop %q has statements without executable bodies", info.SCoP.Name)
	}
	return compileTasks(info, opts)
}

// CompileForEmission lowers the task structure only — the chain plan
// over detection's blocks and its dependency columns — without
// requiring (or ever touching) statement bodies. It is the seam the AOT back end
// (internal/ir, internal/gogen) compiles through: emitted programs
// carry their own statement bodies, so attaching interpreter bodies to
// the caller's SCoP, as gogen.Emit once did as a side effect, is
// neither needed nor allowed. The returned program must not be
// executed in process unless the SCoP carries bodies. opts, if given,
// is one CompileOptions.
func CompileForEmission(info *core.Info, opts ...CompileOptions) (*TaskProgram, error) {
	return compileTasks(info, append(opts, CompileOptions{})[0])
}

// compileTasks allocates per statement and per run, never per block.
func compileTasks(info *core.Info, opts CompileOptions) (*TaskProgram, error) {
	prog := &TaskProgram{SCoP: info.SCoP, Opts: opts, Stmts: info.Stmts}
	stop := opts.Obs.Phase("codegen.lower")
	defer stop()
	prog.runs, prog.grains = cut(info.Stmts, opts.MinBlockIters, maxChainTasks)
	prog.cols = chainColumns(info.Stmts, prog.runs)
	opts.Obs.Count("codegen.tasks", int64(prog.grains))
	return prog, nil
}

// NumTasks returns the number of grains (the paper's per-block tasks,
// §5.4, at MinBlockIters ≤ 1); the chain program has len(ChainTasks()).
func (p *TaskProgram) NumTasks() int { return p.grains }

// Grains returns the program's grains in id order, statement by
// statement, each as the run of blocks it groups, computed per call.
func (p *TaskProgram) Grains() []ChainTask {
	grains, _ := cut(p.Stmts, p.Opts.MinBlockIters, math.MaxInt)
	return grains
}

// PrecedenceEdges returns the paper's task DAG over the grains as
// (predecessor, successor) pairs of grain ids, per grain its data edges
// in in-dependency order and then its serial edge (funcCount): the
// columns of runs of one grain, computed per call for the simulator.
func (p *TaskProgram) PrecedenceEdges() [][2]int {
	grains := p.Grains()
	cols := chainColumns(p.Stmts, grains)
	base := make([]int, len(cols.Lens))
	for s := 1; s < len(base); s++ {
		base[s] = base[s-1] + int(cols.Lens[s-1])
	}
	edges := make([][2]int, 0, len(cols.PredChain))
	for i := range grains {
		for e := cols.PredOff[i]; e < cols.PredOff[i+1]; e++ {
			edges = append(edges, [2]int{base[cols.PredChain[e]] + int(cols.PredPos[e]), i})
		}
	}
	return edges
}

// Members returns the iterations of run r in execution order: a
// shared, read-only subslice of its statement's sorted domain.
func (p *TaskProgram) Members(r ChainTask) []isl.Vec {
	si := p.Stmts[r.Stmt]
	return si.Stmt.Domain.Elements()[si.Blocks[r.First].First : si.Blocks[r.Last].Last+1]
}

// runBlock executes the members of run r in order. elems is the
// statement's sorted domain.
func (p *TaskProgram) runBlock(r ChainTask, elems []isl.Vec) {
	si := p.Stmts[r.Stmt]
	for _, iv := range elems[si.Blocks[r.First].First : si.Blocks[r.Last].Last+1] {
		si.Stmt.Body(iv)
	}
}

// maxChainTasks caps the tasks of one statement's chain: Compile cuts
// a statement's grains into runs of g = ⌈grains / maxChainTasks⌉
// consecutive grains, one task per run. A cap needs no body timing, so
// it holds for opaque bodies; it spreads the per-task handoff over at
// least blocks / maxChainTasks blocks; and it bounds pipeline fill and
// drain at about (S−1)/maxChainTasks of a run of S statements,
// whatever a body costs. Measured at two workers on a 2-vCPU Xeon with
// the runtime's yieldEvery = 16 and spinRounds = 1024, summing the
// fastest-quartile means of each member: light is the six t9_light
// members (P4/P7/P10, n = 32/64, interpreted bodies, 164 runs), heavy
// the three t9_heavy ones (n = 32, next_prime bodies, 60 runs), every
// plan interleaved run by run in one process. The tasks column counts
// the six light members' chain tasks.
//
//	cap                  tasks      light      heavy
//	none (one per block)  41 962   4.73 ms   20.45 ms
//	64                     1 348   1.89 ms   20.17 ms
//	128                    2 673   1.98 ms   20.01 ms
//	256                    5 231   2.18 ms   19.93 ms
//
// With the runtime's earlier knobs (yieldEvery 32, spinRounds 64), one
// task per block read 4.45 / 20.49 ms. Every cap leaves heavy within
// 3 % of one task per block; light is fastest at 64.
const maxChainTasks = 64

// ChainTask is one task of the chain plan: the run of consecutive
// blocks First..Last of statement Stmt, indices into its
// StmtInfo.Blocks. Its members are positions Blocks[First].First
// through Blocks[Last].Last of the statement's sorted domain.
type ChainTask struct {
	Stmt, First, Last int32
}

// ChainTasks returns the tasks of the chain program BuildIR lowers, in
// its task-id order: statement by statement, runs in execution order.
// The slice is the program's own and must not be modified.
func (p *TaskProgram) ChainTasks() []ChainTask { return p.runs }

// Label names chain task r in traces and emitted source by its last
// block's leader ("S[3, 8]"). It is formatted on demand: only a traced
// run or an emission reads it.
func (p *TaskProgram) Label(r ChainTask) string {
	si := p.Stmts[r.Stmt]
	return fmt.Sprintf("%s%v", si.Stmt.Name, si.Blocks[r.Last].Leader)
}

// cut is the plan's one cut of stmts' blocks, in statement-index order.
// A grain closes at a block boundary once it holds minIters iterations
// (only a statement's last may hold fewer); runs take ⌈grains / limit⌉
// consecutive grains each. It returns the runs and the grain count, in
// O(statements + runs), plus O(blocks) when minIters > 1.
func cut(stmts []*core.StmtInfo, minIters, limit int) (runs []ChainTask, grains int) {
	n := 0
	for _, si := range stmts {
		n += min(len(si.Blocks), limit) // a bound on the statement's runs
	}
	runs = make([]ChainTask, 0, n)
	var ends []int32 // with minIters > 1, each grain's last block
	for s, si := range stmts {
		k := len(si.Blocks) // the statement's grains
		if minIters > 1 {
			ends = ends[:0]
			pending := 0
			for b, blk := range si.Blocks {
				if pending += blk.Len(); pending >= minIters || b == len(si.Blocks)-1 {
					ends, pending = append(ends, int32(b)), 0
				}
			}
			k = len(ends)
		}
		grains += k
		g := (k-1)/limit + 1 // 1 when k = 0, and no run
		first := int32(0)
		for j := 0; j < k; j += g {
			last := int32(min(j+g, k) - 1)
			if minIters > 1 {
				last = ends[last]
			}
			runs = append(runs, ChainTask{Stmt: int32(s), First: first, Last: last})
			first = last + 1
		}
	}
	return runs, grains
}

// Columns returns the chain plan's dependency columns in task-id order
// (see ChainTasks): one chain per statement, Lens[s] runs long, and
// each run's predecessors as (chain, position) pairs. Run and Label are
// nil. The slices are the program's own, shared by every program
// BuildIR builds, and must not be modified.
func (p *TaskProgram) Columns() runtime.ChainSpec { return p.cols }

// chainColumns computes the dependency columns of runs, a cut of
// stmts' blocks, with no address resolution. A run waits on, for every
// in-dependency, the source run holding the largest To[b] among its
// blocks — so every block-level edge (Src, To[b]) → (S, b) is implied
// through the source chain's order — and then on its serial
// predecessor run. Cut into runs of one grain, it is the grain DAG
// (PrecedenceEdges). The source run is found by one cursor per
// in-dependency over the source chain, reset at each statement's first
// run: it steps forward and back to the first run whose Last is at
// least the wanted block, so it is exact for any To, and amortized
// O(1) per run where To is monotone.
func chainColumns(stmts []*core.StmtInfo, runs []ChainTask) runtime.ChainSpec {
	lens := make([]int32, len(stmts))
	off := make([]int32, len(stmts)) // each statement's first run
	edges, fanIn := len(runs), 0
	for i, r := range runs {
		if lens[r.Stmt] == 0 {
			off[r.Stmt] = int32(i)
		}
		lens[r.Stmt]++
		edges += len(stmts[r.Stmt].InDeps)
		fanIn = max(fanIn, len(stmts[r.Stmt].InDeps))
	}
	cursor := make([]int32, fanIn) // a statement's runs are contiguous
	cols := runtime.ChainSpec{
		Lens:      lens,
		PredOff:   make([]int32, 1, len(runs)+1),
		PredChain: make([]int32, 0, edges),
		PredPos:   make([]int32, 0, edges),
	}
	for i, r := range runs {
		pos := int32(i) - off[r.Stmt]
		if pos == 0 {
			clear(cursor)
		}
		for d, dep := range stmts[r.Stmt].InDeps {
			q := int32(-1)
			for _, to := range dep.To[r.First : r.Last+1] {
				q = max(q, to)
			}
			if q >= 0 {
				src := dep.Src.Index
				chain := runs[off[src] : off[src]+lens[src]]
				c := cursor[d]
				for int(c) < len(chain) && chain[c].Last < q {
					c++
				}
				for c > 0 && chain[c-1].Last >= q {
					c--
				}
				cursor[d] = c
				cols.PredChain = append(cols.PredChain, int32(src))
				cols.PredPos = append(cols.PredPos, c)
			}
		}
		if pos > 0 {
			cols.PredChain = append(cols.PredChain, r.Stmt)
			cols.PredPos = append(cols.PredPos, pos-1)
		}
		cols.PredOff = append(cols.PredOff, int32(len(cols.PredChain)))
	}
	return cols
}

// BuildIR builds the compiled runtime IR of the chain plan from the
// columns Compile computed: one chain per statement and one task per
// run of its grains (see maxChainTasks), whose body runs its blocks'
// members in order through runBlock. BuildIR always builds afresh; use
// Lower for the memoized program-lifetime IR.
func (p *TaskProgram) BuildIR() *runtime.Program {
	return p.build(p.runs, p.cols)
}

// build attaches the bodies and labels of runs to cols, their columns.
func (p *TaskProgram) build(runs []ChainTask, cols runtime.ChainSpec) *runtime.Program {
	elems := make([][]isl.Vec, len(p.Stmts))
	for s, si := range p.Stmts {
		elems[s] = si.Stmt.Domain.Elements()
	}
	cols.Run = func(i int) { p.runBlock(runs[i], elems[runs[i].Stmt]) }
	cols.Label = func(i int) string { return p.Label(runs[i]) }
	return cols.Build()
}

// Lower returns the program's compiled runtime IR, building it with
// BuildIR on first use and reusing it afterwards. The IR is immutable
// and safe for concurrent and repeated execution. The emission path
// never calls it: ir.Lower reads Columns.
func (p *TaskProgram) Lower() *runtime.Program {
	return p.LowerObserved(nil)
}

// LowerObserved is Lower with observability: a first lowering is timed
// under the "codegen.lower_ir" phase, and every memoized reuse counts
// one "runtime.ir_reuse" hit.
func (p *TaskProgram) LowerObserved(rec *obs.Recorder) *runtime.Program {
	hit := true
	p.lowerOnce.Do(func() {
		hit = false
		stop := rec.Phase("codegen.lower_ir")
		p.lowered = p.BuildIR()
		stop()
	})
	if hit {
		rec.Count("runtime.ir_reuse", 1)
	}
	return p.lowered
}

// Run executes the program's compiled IR with the given worker count
// and blocks until completion. The IR is lowered on first use and
// reused by every later Run.
func (p *TaskProgram) Run(workers int) {
	p.Lower().Execute(workers, runtime.ExecOptions{})
}

// RunTraced executes the program's compiled IR with a tracing callback
// installed.
func (p *TaskProgram) RunTraced(workers int, trace func(runtime.Event)) (executed, maxConcurrent int) {
	st := p.Lower().Execute(workers, runtime.ExecOptions{Trace: trace})
	return st.Executed, st.MaxConcurrent
}
