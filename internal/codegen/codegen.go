// Package codegen lowers a detected pipeline structure to an
// executable task program, mirroring the paper's code-generation phase
// (§5.4): every pipeline block becomes one task (Tasks, DataEdges,
// SerialEdges) whose body runs the block's iterations in order. Both
// back ends execute a coarser plan of the same DAG: BuildIR lowers one
// chain per statement whose tasks are runs of consecutive blocks, at
// most maxChainTasks per chain, and an emitted program embeds that
// plan (ChainTasks). Addresses converts the block-leader vectors of the
// dependency relations to the paper's unique integer dependency
// addresses, the reference the tests resolve the per-block DAG against.
package codegen

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/isl"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/schedtree"
	"repro/internal/scop"
)

// TaskSpec is one generated task, before lowering to the runtime: the
// block detection built (StmtInfo.Blocks), positions First..Last of the
// statement's sorted domain led by Leader, which is shared and
// read-only.
type TaskSpec struct {
	Stmt        *scop.Statement
	Leader      isl.Vec
	First, Last int32
	// ParallelBody marks tasks whose members may run concurrently
	// (the statement has no intra-nest conflicts); set only when
	// CompileOptions.IntraBlockWorkers > 1.
	ParallelBody bool
}

// Members returns the task's iterations in execution order, a shared,
// read-only subslice of the statement's sorted domain.
func (t *TaskSpec) Members() []isl.Vec {
	return t.Stmt.Domain.Elements()[t.First : t.Last+1]
}

// Label names the task in traces and emitted source ("S[3, 8]"). It is
// formatted on demand: a compile creates tens of thousands of tasks
// and only a traced run or an emission ever reads their names.
func (t *TaskSpec) Label() string {
	return fmt.Sprintf("%s%v", t.Stmt.Name, t.Leader)
}

// CompileOptions tunes code generation beyond the paper's prototype.
type CompileOptions struct {
	// IntraBlockWorkers, when > 1, enables the hybrid mode the paper's
	// §7 raises (combining cross-loop pipelining with other
	// parallelism): tasks of statements that carry no intra-nest
	// conflicts execute their block members concurrently on up to this
	// many goroutines. Blocks still run in order and cross-loop
	// dependencies are unchanged, so correctness is unaffected.
	IntraBlockWorkers int
	// Obs, when non-nil, receives compile-phase timings
	// ("codegen.schedule_tree", "codegen.lower") and counts
	// ("codegen.tasks", "sched.tree_nodes").
	Obs *obs.Recorder
}

// TaskProgram is the compiled pipelined program: tasks in creation
// (program) order.
type TaskProgram struct {
	SCoP   *scop.SCoP
	Tasks  []TaskSpec
	Opts   CompileOptions
	blocks int

	// stmts is the detection result per statement, in index order. The
	// tasks are its blocks, statement by statement, so task (S, b) is
	// base[S] + b and its in-dependencies are stmts[S].InDeps' To[b].
	stmts []*core.StmtInfo
	base  []int

	// lowered caches the compiled runtime IR (see Lower), built once
	// and reused by every run.
	lowerOnce sync.Once
	lowered   *runtime.Program
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

// Addresses returns the program's §5.4 dependency interface, the
// depend(out/in) clauses the paper's generated code creates its tasks
// with: the coder, task i's out address out[i] (the encoded leader of its
// block), and in[i], the out addresses of the source blocks task i
// waits on, in in-dependency order. The in lists share one backing
// array and are capped at their length. Nothing executed or emitted
// reads the addresses — BuildIR lowers from the in-dependency columns
// directly — so they are computed here, on demand, as the reference
// runtime.Builder resolves in the tests.
func (p *TaskProgram) Addresses() (coder VecCoder, out []int, in [][]int) {
	coder = newCoder(p.stmts, len(p.SCoP.Stmts))
	out = make([]int, len(p.Tasks))
	in = make([][]int, len(p.Tasks))
	edges := 0
	for _, si := range p.stmts {
		for i := range si.InDeps {
			edges += si.InDeps[i].Edges()
		}
	}
	ins := make([]int, 0, edges)
	for i := range p.Tasks {
		t := &p.Tasks[i]
		s := t.Stmt.Index
		b := i - p.base[s]
		first := len(ins)
		for _, dep := range p.stmts[s].InDeps {
			if q := dep.To[b]; q >= 0 {
				ins = append(ins, coder.Encode(dep.Src.Index, p.stmts[dep.Src.Index].Blocks[q].Leader))
			}
		}
		out[i] = coder.Encode(s, t.Leader)
		in[i] = ins[first:len(ins):len(ins)]
	}
	return coder, out, in
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

// CompileForEmission lowers the task structure only — block leaders,
// members and the in-dependency columns the task DAG is read off —
// without requiring (or ever touching) statement bodies. It is the seam the AOT back end
// (internal/ir, internal/gogen) compiles through: emitted programs
// carry their own statement bodies, so attaching interpreter bodies to
// the caller's SCoP, as gogen.Emit once did as a side effect, is
// neither needed nor allowed. The returned program must not be
// executed in process unless the SCoP carries bodies.
func CompileForEmission(info *core.Info) (*TaskProgram, error) {
	return compileTasks(info, CompileOptions{})
}

func compileTasks(info *core.Info, opts CompileOptions) (*TaskProgram, error) {
	prog := &TaskProgram{SCoP: info.SCoP, Opts: opts, stmts: info.Stmts, base: make([]int, len(info.Stmts))}

	parallelBody := make([]bool, len(info.SCoP.Stmts))
	if opts.IntraBlockWorkers > 1 {
		for _, s := range info.SCoP.Stmts {
			parallelBody[s.Index] = !info.Graph.HasIntraConflicts(s)
		}
	}

	stop := opts.Obs.Phase("codegen.schedule_tree")
	tree := schedtree.Build(info)
	stop()
	opts.Obs.SetGauge("sched.tree_nodes", int64(schedtree.NumNodes(tree)))

	stop = opts.Obs.Phase("codegen.lower")
	defer stop()
	// One spec per block detection built, in schedule-tree order, so a
	// compile allocates per program, not per task.
	instances := schedtree.Flatten(tree)
	prog.Tasks = make([]TaskSpec, len(instances))
	for i, inst := range instances {
		stmt := inst.Task.Stmt
		blk := &inst.Task.Blocks[inst.Block]
		if inst.Block == 0 {
			prog.base[stmt.Index] = i
		}
		prog.Tasks[i] = TaskSpec{
			Stmt:         stmt,
			Leader:       blk.Leader,
			First:        blk.First,
			Last:         blk.Last,
			ParallelBody: parallelBody[stmt.Index],
		}
	}
	prog.blocks = len(prog.Tasks)
	opts.Obs.Count("codegen.tasks", int64(prog.blocks))
	return prog, nil
}

// NumTasks returns the number of per-block tasks (§5.4); the chain
// program both back ends run has len(ChainTasks()) tasks.
func (p *TaskProgram) NumTasks() int { return p.blocks }

// DataEdges returns the cross-statement dependency edges of the task
// DAG as (producer, consumer) pairs of task indices, read off the
// in-dependency columns: task (S, b) waits on task (Src, To[b]). They
// are the edges the runtime's address resolution would find, in the
// same order — by consumer, then in-dependency — and always point
// forward in creation order.
func (p *TaskProgram) DataEdges() [][2]int {
	var edges [][2]int
	for _, si := range p.stmts {
		for b := range si.Blocks {
			for _, dep := range si.InDeps {
				if q := dep.To[b]; q >= 0 {
					edges = append(edges, [2]int{p.base[dep.Src.Index] + int(q), p.base[si.Stmt.Index] + b})
				}
			}
		}
	}
	return edges
}

// SerialEdges returns the per-statement serialization chains (the
// funcCount self-dependencies) as (predecessor, successor) pairs of
// task indices: block b−1 → block b of every statement.
func (p *TaskProgram) SerialEdges() [][2]int {
	var edges [][2]int
	for _, si := range p.stmts {
		for b := 1; b < len(si.Blocks); b++ {
			i := p.base[si.Stmt.Index] + b
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	return edges
}

// PrecedenceEdges returns all realized scheduling constraints of the
// task DAG: data-dependency edges plus serial chains — the edge set the
// critical-path analysis walks.
func (p *TaskProgram) PrecedenceEdges() [][2]int {
	return append(p.DataEdges(), p.SerialEdges()...)
}

// runBlock executes a block's members in order, or spread over
// IntraBlockWorkers goroutines when its statement has no intra-nest
// conflicts.
func (p *TaskProgram) runBlock(spec *TaskSpec, members []isl.Vec) {
	if spec.ParallelBody && len(members) > 1 {
		runMembersParallel(spec.Stmt.Body, members, p.Opts.IntraBlockWorkers)
		return
	}
	for _, iv := range members {
		spec.Stmt.Body(iv)
	}
}

// maxChainTasks caps the tasks of one statement's chain: BuildIR
// lowers a statement's blocks in runs of g = ⌈blocks / maxChainTasks⌉
// consecutive blocks, one task per run. A cap needs no body timing, so
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

// ChainTask is one task of the chain program BuildIR lowers: the run of
// consecutive blocks Tasks[First..Last] of one statement, whose members
// are positions Tasks[First].First through Tasks[Last].Last of the
// statement's sorted domain.
type ChainTask struct {
	First, Last int32
}

// ChainTasks returns the tasks of the chain program BuildIR lowers, in
// its task-id order: statement by statement, runs in execution order.
func (p *TaskProgram) ChainTasks() []ChainTask {
	runs, _ := p.chainTasks(maxChainTasks)
	return runs
}

// chainTasks cuts every statement's blocks into runs of at most
// ⌈blocks / limit⌉, so no chain holds more than limit tasks, and returns
// the runs with each statement's run length g.
func (p *TaskProgram) chainTasks(limit int) (runs []ChainTask, g []int) {
	g = make([]int, len(p.stmts))
	n := 0
	for s, si := range p.stmts {
		g[s] = max((len(si.Blocks)+limit-1)/limit, 1)
		n += (len(si.Blocks) + g[s] - 1) / g[s]
	}
	runs = make([]ChainTask, 0, n)
	for s, si := range p.stmts {
		for b := 0; b < len(si.Blocks); b += g[s] {
			first := p.base[s] + b
			last := p.base[s] + min(b+g[s], len(si.Blocks)) - 1
			runs = append(runs, ChainTask{First: int32(first), Last: int32(last)})
		}
	}
	return runs, g
}

// BuildIR lowers the program to the compiled runtime IR: one chain per
// statement and one task per run of its blocks (see maxChainTasks), in
// O(blocks + in-dependencies), with no address resolution. A run waits
// on, for every in-dependency, the source run holding the largest
// To[b] among its blocks — so every block-level edge (Src, To[b]) →
// (S, b) is implied through the source chain's order — and then on its
// serial predecessor run. A run's body runs its blocks' members in
// order through runBlock. BuildIR always lowers afresh; use Lower for
// the memoized program-lifetime IR.
func (p *TaskProgram) BuildIR() *runtime.Program {
	return p.buildIR(maxChainTasks)
}

// buildIR is BuildIR at a cap of limit tasks per chain. At a limit no
// statement's block count exceeds, it lowers one task per block: the
// per-block DAG the tests compare against runtime.Builder.
func (p *TaskProgram) buildIR(limit int) *runtime.Program {
	runs, g := p.chainTasks(limit)
	edges := 0
	lens := make([]int32, len(p.stmts))
	elems := make([][]isl.Vec, len(p.stmts))
	for s, si := range p.stmts {
		lens[s] = int32((len(si.Blocks) + g[s] - 1) / g[s])
		elems[s] = si.Stmt.Domain.Elements()
		edges += int(lens[s]) * (len(si.InDeps) + 1)
	}
	spec := runtime.ChainSpec{
		Lens:      lens,
		PredOff:   make([]int32, 1, len(runs)+1),
		PredChain: make([]int32, 0, edges),
		PredPos:   make([]int32, 0, edges),
		Run: func(i int) {
			first := &p.Tasks[runs[i].First]
			p.runBlock(first, elems[first.Stmt.Index][first.First:p.Tasks[runs[i].Last].Last+1])
		},
		Label: func(i int) string { return p.Tasks[runs[i].Last].Label() },
	}
	for _, r := range runs {
		s := p.Tasks[r.First].Stmt.Index
		b0, b1 := int(r.First)-p.base[s], int(r.Last)-p.base[s]
		for _, dep := range p.stmts[s].InDeps {
			q := int32(-1)
			for _, to := range dep.To[b0 : b1+1] {
				q = max(q, to)
			}
			if q >= 0 {
				src := dep.Src.Index
				spec.PredChain = append(spec.PredChain, int32(src))
				spec.PredPos = append(spec.PredPos, q/int32(g[src]))
			}
		}
		if b0 > 0 {
			spec.PredChain = append(spec.PredChain, int32(s))
			spec.PredPos = append(spec.PredPos, int32(b0/g[s]-1))
		}
		spec.PredOff = append(spec.PredOff, int32(len(spec.PredChain)))
	}
	return spec.Build()
}

// Lower returns the program's compiled runtime IR, lowering it on
// first use and reusing it afterwards. The IR is immutable and safe
// for concurrent and repeated execution.
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

// runMembersParallel executes a conflict-free block's members on up to
// workers goroutines (hybrid intra-block parallelism).
func runMembersParallel(body scop.Body, members []isl.Vec, workers int) {
	if workers > len(members) {
		workers = len(members)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(members); k += workers {
				body(members[k])
			}
		}(w)
	}
	wg.Wait()
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
