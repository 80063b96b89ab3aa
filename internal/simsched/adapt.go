package simsched

import (
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/kernels"
)

// SimulatePipelined measures the task program of p (per-task costs,
// taken during a sequential replay in creation order — a valid
// topological order) and returns the sequential time (Σ costs) plus
// the simulated P-processor schedule of the real dependency DAG.
// overhead is added to every task's cost to model task
// creation/scheduling overhead. The program state is left reset.
func SimulatePipelined(p *kernels.Program, opts core.Options, procs int, overhead time.Duration) (time.Duration, Schedule, error) {
	info, err := core.Detect(p.SCoP, opts)
	if err != nil {
		return 0, Schedule{}, err
	}
	prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: opts.MinBlockIters})
	if err != nil {
		return 0, Schedule{}, err
	}
	seq, sch := SimulateCompiled(p, prog, procs, overhead)
	return seq, sch, nil
}

// SimulateCompiled is SimulatePipelined for an already-compiled task
// program.
func SimulateCompiled(p *kernels.Program, prog *codegen.TaskProgram, procs int, overhead time.Duration) (time.Duration, Schedule) {
	tasks, seq := MeasureCompiled(p, prog, overhead)
	return seq, List(tasks, procs)
}

// MeasureCompiled runs the compiled task program once sequentially (a
// valid topological order), measuring the cost of each of the paper's
// tasks, one per grain (the program's Grains), with their dependency
// DAG (its PrecedenceEdges), which the coarser chain program the
// runtime executes implies. Task i is the i-th grain. The
// returned tasks can be scheduled at several processor counts without
// re-measuring — required when comparing counts, since separate
// replays introduce measurement noise between them. The program state
// is left reset.
func MeasureCompiled(p *kernels.Program, prog *codegen.TaskProgram, overhead time.Duration) ([]Task, time.Duration) {
	p.Reset()
	grains := prog.Grains()
	tasks := make([]Task, 0, len(grains))
	var seq time.Duration
	for _, g := range grains {
		members := prog.Members(g)
		start := time.Now()
		for _, iv := range members {
			prog.Stmts[g.Stmt].Stmt.Body(iv)
		}
		cost := time.Since(start)
		seq += cost
		if prog.ParallelBody[g.Stmt] {
			// Hybrid mode: members run concurrently inside the task;
			// model perfect scaling over the intra-block workers (the
			// caller is responsible for procs×workers ≤ hardware).
			cost /= time.Duration(min(prog.Opts.IntraBlockWorkers, len(members)))
		}
		tasks = append(tasks, Task{Cost: cost + overhead})
	}
	for _, e := range prog.PrecedenceEdges() {
		tasks[e[1]].Deps = append(tasks[e[1]].Deps, e[0])
	}
	p.Reset()
	return tasks, seq
}

// SimulateParLoop measures and simulates the Polly-style baseline in
// virtual time: each nest's outermost provably-parallel loop dimension
// is split into slices scheduled on procs processors, with barriers
// between sequential groups and between nests; fully serial nests are
// single tasks. Returns the sequential time and the schedule. The
// program state is left reset.
func SimulateParLoop(p *kernels.Program, procs int, overhead time.Duration) (time.Duration, Schedule) {
	g := deps.Analyze(p.SCoP)
	p.Reset()

	var tasks []Task
	var seq time.Duration
	// prevBarrier is the task every slice of the next group depends on.
	prevBarrier := -1

	for _, s := range p.SCoP.Stmts {
		par := g.ParallelDims(s)
		d := -1
		for dim, ok := range par {
			if ok {
				d = dim
				break
			}
		}
		elems := s.Domain.Elements()
		if d < 0 {
			// Serial nest: one task.
			start := time.Now()
			for _, iv := range elems {
				s.Body(iv)
			}
			cost := time.Since(start)
			seq += cost
			t := Task{Cost: cost + overhead}
			if prevBarrier >= 0 {
				t.Deps = append(t.Deps, prevBarrier)
			}
			tasks = append(tasks, t)
			prevBarrier = len(tasks) - 1
			continue
		}
		// Parallel at dimension d: groups of equal prefix (dims < d)
		// run in order with barriers; slices (equal value at d) within
		// a group are parallel tasks.
		for gs := 0; gs < len(elems); {
			ge := gs
			prefix := elems[gs][:d]
			for ge < len(elems) && elems[ge][:d].Eq(prefix) {
				ge++
			}
			var sliceIDs []int
			for ss := gs; ss < ge; {
				se := ss
				for se < ge && elems[se][d] == elems[ss][d] {
					se++
				}
				start := time.Now()
				for _, iv := range elems[ss:se] {
					s.Body(iv)
				}
				cost := time.Since(start)
				seq += cost
				t := Task{Cost: cost + overhead}
				if prevBarrier >= 0 {
					t.Deps = append(t.Deps, prevBarrier)
				}
				tasks = append(tasks, t)
				sliceIDs = append(sliceIDs, len(tasks)-1)
				ss = se
			}
			// Zero-cost barrier joining the group.
			tasks = append(tasks, Task{Cost: 0, Deps: sliceIDs})
			prevBarrier = len(tasks) - 1
			gs = ge
		}
	}
	p.Reset()
	return seq, List(tasks, procs)
}
